package srv

import (
	"errors"
	"io"
	"math"
	"net"
	"os"
	"testing"
	"time"

	"iosnap/internal/shard"
)

// FuzzServeConn feeds arbitrary bytes to the one frame decoder, behind a
// valid hello: whatever arrives, the server neither panics nor hangs, the
// connection ends once the peer has stopped sending, and the service
// behind it passes its invariant sweep. The seeds are the malformed and
// hostile frames the wire tests send one at a time (short, oversized and
// truncated frames, empty and ragged write payloads, the 2^63-sector trim)
// plus one well-formed request of every op.
func FuzzServeConn(f *testing.F) {
	ss := testNandConfig().SectorSize
	for _, seed := range [][]byte{
		frame([]byte{1, 2}),
		{0xff, 0xff, 0xff, 0xff},
		{0, 0, 0, 100, 1, 2, 3},
		request(1, opWrite, args{}.u64(0), nil),
		request(2, opWrite, args{}.u64(0), make([]byte, ss+1)),
		request(3, opTrim, args{}.u64(1).u64(math.MaxInt64), nil),
		request(4, opRead, args{}.u64(0).u32(math.MaxUint32), nil),
		request(5, 0xEE, args{}, nil),
		request(6, opHello, helloArgs(4), nil),
	} {
		f.Add(seed)
	}
	var session []byte
	for i, req := range [][]byte{
		request(0, opPing, args{}, nil),
		request(0, opWrite, args{}.u64(7), pattern('f', 2, ss)),
		request(0, opRead, args{}.u64(7).u32(2), nil),
		request(0, opSnapCreate, args{}, nil),
		request(0, opWrite, args{}.u64(0), pattern('g', largeRead, ss)),
		request(0, opSnapRead, args{}.u64(1).u64(0).u32(largeRead), nil),
		request(0, opTrim, args{}.u64(7).u64(1), nil),
		request(0, opSnapDelete, args{}.u64(1), nil),
		request(0, opStats, args{}, nil),
		request(0, opShutdown, args{}, nil),
	} {
		req[7] = byte(i) // distinct tags
		f.Add(req)
		session = append(session, req...)
	}
	f.Add(session)

	f.Fuzz(func(t *testing.T, data []byte) {
		svc, err := shard.NewService(testShardConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		s, addr, served := startServer(t, svc)
		raw := rawHello(t, addr, 4)
		defer raw.Close()
		raw.SetDeadline(time.Now().Add(10 * time.Second))
		sent := make(chan struct{})
		go func() {
			defer close(sent)
			raw.Write(data) // fails once the server has hung up on a bad frame
			raw.(*net.TCPConn).CloseWrite()
		}()
		// A reset is an ending too: the server hung up with bytes unread.
		if _, err := io.Copy(io.Discard, raw); errors.Is(err, os.ErrDeadlineExceeded) {
			t.Error("connection still open 10 s after the peer stopped sending")
		}
		<-sent
		s.Shutdown()
		select {
		case <-served:
		case <-time.After(10 * time.Second):
			t.Fatal("Serve did not drain")
		}
		if err := svc.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
