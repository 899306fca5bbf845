// Package faultinject builds deterministic, seed-driven fault plans for the
// simulated NAND device. A Plan implements nand.FaultHook and is armed on a
// device with Arm; from then on it counts matching operations and fires its
// rules: aborting an operation with an injected error, corrupting the OOB
// header of a page as it is programmed (a torn log note), or cutting power so
// that every subsequent operation fails until the harness "restores power"
// and runs crash recovery.
//
// Plans are reproducible by construction: rule triggers are either exact
// operation counts or probabilities drawn from a sim.RNG seeded explicitly,
// and the same plan against the same workload fires the same faults at the
// same operations on every run. This is what lets the torture harness replay
// a failing seed exactly.
package faultinject

import (
	"errors"
	"fmt"
	"strings"

	"iosnap/internal/header"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// ErrCrashed is returned for every device operation after a plan cuts power.
var ErrCrashed = errors.New("faultinject: device lost power")

// AnyOp matches every device operation in a Rule.
const AnyOp nand.Op = -1

// AnySeg matches every segment in a Rule.
const AnySeg = -1

// Kind selects what a rule does when it fires.
type Kind int

const (
	// KindError aborts the matching operation with the rule's error.
	KindError Kind = iota
	// KindCrash cuts power: the matching operation and all later ones fail
	// with ErrCrashed until the harness recovers the device.
	KindCrash
	// KindTornOOB lets the matching program proceed but corrupts its OOB
	// header bytes and then cuts power — the torn-write-at-the-log-tail
	// crash artifact. (A torn header is only ever observable after power
	// loss: while the host stays up its RAM state is authoritative.)
	KindTornOOB
	// KindTransient injects retryable failures: a matching (op, page) target
	// fails its first Times attempts with the rule's error (default
	// nand.ErrTransient) and then succeeds — the distinction a retry policy
	// exists to exploit. Count-based rules put the AfterN-th distinct
	// matching target into a transient episode; with Prob > 0 each new
	// target independently enters an episode with that probability.
	KindTransient
	// KindCorruptData flips payload bits (seeded, deterministic) on matching
	// read or program targets instead of failing the operation — the fault
	// that exercises checksum detection end to end. Episode semantics match
	// KindTransient: the AfterN-th distinct target (or, with Prob > 0, each
	// new target independently) corrupts its first Times attempts. A
	// corrupted READ hands the host damaged bytes for that one transfer (the
	// device's integrity check turns it into nand.ErrCorruptData and a
	// re-read clears it); a corrupted PROGRAM stores damaged bytes behind an
	// intact fingerprint, so every later read of the page detects it until
	// the page is rewritten.
	KindCorruptData
)

func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindCrash:
		return "crash"
	case KindTornOOB:
		return "torn-oob"
	case KindTransient:
		return "transient"
	case KindCorruptData:
		return "corrupt-data"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Rule is one fault trigger. The zero value of the filter fields is
// permissive where that reads naturally (Seg 0 would silently mean "segment
// 0", so use AnySeg explicitly; NewPlan validates this footgun away by
// treating AfterN==0 && Prob==0 as AfterN==1).
type Rule struct {
	Name string // label used in the fired-event log; defaults to the kind

	Kind Kind

	// Matching for KindError / KindCrash (consulted in BeforeOp):
	Op  nand.Op // operation to match; AnyOp matches all
	Seg int     // segment filter; AnySeg matches all

	// Matching for KindTornOOB — and for KindCrash rules that should cut
	// power right AFTER a specific kind of header lands (both are consulted
	// as headers are programmed): only programs of this header type match;
	// 0 = any. A KindCrash rule with HeaderType set lets the program that
	// triggered it complete intact — the crash is observed by the next
	// operation — which models power dying between two appends.
	HeaderType header.Type

	// Trigger: the AfterN-th matching call (1-based), or — when Prob > 0 —
	// each matching call independently with probability Prob drawn from the
	// plan's seeded RNG. Count-based rules fire once; probabilistic rules
	// stay armed.
	AfterN int64
	Prob   float64

	// Times is how many consecutive attempts a KindTransient episode fails
	// before the target recovers (default 1).
	Times int64

	// Err is the error injected by KindError (default nand.ErrDeviceFailed)
	// or KindTransient (default nand.ErrTransient).
	Err error

	// CrashAfter makes a KindError rule also cut power after injecting its
	// error (the failure took the device down with it).
	CrashAfter bool
}

// Fired records one rule firing, for reports and tests.
type Fired struct {
	Rule  string
	Op    nand.Op
	Addr  nand.PageAddr
	Count int64 // the matching-operation count at which the rule fired
}

func (f Fired) String() string {
	return fmt.Sprintf("%s@%s#%d(page %d)", f.Rule, f.Op, f.Count, f.Addr)
}

type ruleState struct {
	Rule
	matched int64
	spent   bool
	trans   map[transKey]*transState // KindTransient per-target episodes
}

// transKey identifies a transient-fault target: retrying the same operation
// at the same page consumes the episode; other targets are independent.
type transKey struct {
	op   nand.Op
	addr nand.PageAddr
}

type transState struct {
	remaining int64 // failures still to inject; 0 = target behaves normally
}

// Plan is a deterministic schedule of faults against one device. It
// implements nand.FaultHook. A Plan is not safe for concurrent use, matching
// the single-threaded simulation.
type Plan struct {
	rng     *sim.RNG
	seed    uint64 // also salts KindCorruptData's deterministic bit flips
	rules   []*ruleState
	pps     int // pages per segment of the armed device (for Seg filters)
	crashed bool
	fired   []Fired
}

// NewPlan builds a plan over the given rules. seed drives probabilistic
// rules; plans with only count-based rules ignore it.
func NewPlan(seed uint64, rules ...Rule) *Plan {
	p := &Plan{rng: sim.NewRNG(seed), seed: seed}
	for _, r := range rules {
		if r.Err == nil {
			if r.Kind == KindTransient {
				r.Err = nand.ErrTransient
			} else {
				r.Err = nand.ErrDeviceFailed
			}
		}
		if r.Name == "" {
			r.Name = r.Kind.String()
		}
		if r.AfterN <= 0 && r.Prob == 0 {
			r.AfterN = 1
		}
		if r.Times <= 0 {
			r.Times = 1
		}
		rs := &ruleState{Rule: r}
		if r.Kind == KindTransient || r.Kind == KindCorruptData {
			rs.trans = make(map[transKey]*transState)
		}
		p.rules = append(p.rules, rs)
	}
	return p
}

// Arm installs the plan as dev's fault hook and records the geometry its
// segment filters need.
func (p *Plan) Arm(dev *nand.Device) {
	p.pps = dev.Config().PagesPerSegment
	dev.SetFaultHook(p)
}

// Disarm removes the plan from dev if it is the installed hook. The torture
// harness calls this to "restore power" before crash recovery.
func (p *Plan) Disarm(dev *nand.Device) {
	if dev.FaultHook() == p {
		dev.SetFaultHook(nil)
	}
}

// Crashed reports whether a crash rule has fired.
func (p *Plan) Crashed() bool { return p.crashed }

// Fired returns the log of rule firings, oldest first.
func (p *Plan) Fired() []Fired { return append([]Fired(nil), p.fired...) }

// String summarizes the fired events ("-" when none fired yet).
func (p *Plan) String() string {
	if len(p.fired) == 0 {
		return "-"
	}
	parts := make([]string, len(p.fired))
	for i, f := range p.fired {
		parts[i] = f.String()
	}
	return strings.Join(parts, ", ")
}

// triggers advances the rule's match count and reports whether it fires.
func (p *Plan) triggers(r *ruleState) bool {
	r.matched++
	if r.Prob > 0 {
		return p.rng.Float64() < r.Prob
	}
	if r.matched == r.AfterN {
		r.spent = true
		return true
	}
	return false
}

func (p *Plan) segOf(addr nand.PageAddr) int {
	if p.pps <= 0 {
		return 0
	}
	return int(addr) / p.pps
}

// BeforeOp implements nand.FaultHook.
func (p *Plan) BeforeOp(op nand.Op, addr nand.PageAddr) error {
	if p.crashed {
		return ErrCrashed
	}
	for _, r := range p.rules {
		if r.spent || r.Kind == KindTornOOB || r.Kind == KindCorruptData {
			continue // payload corruption triggers in CorruptData, not here
		}
		if r.Kind == KindCrash && r.HeaderType != 0 {
			continue // header-matched crashes trigger in MutateOOB
		}
		if r.Op != AnyOp && r.Op != op {
			continue
		}
		if r.Seg != AnySeg && r.Seg != p.segOf(addr) {
			continue
		}
		if r.Kind == KindTransient {
			if err := p.transientFault(r, op, addr); err != nil {
				return err
			}
			continue
		}
		if !p.triggers(r) {
			continue
		}
		p.fired = append(p.fired, Fired{Rule: r.Name, Op: op, Addr: addr, Count: r.matched})
		switch r.Kind {
		case KindCrash:
			p.crashed = true
			return ErrCrashed
		default: // KindError
			if r.CrashAfter {
				p.crashed = true
			}
			return r.Err
		}
	}
	return nil
}

// transientFault runs one KindTransient rule against a matching operation:
// the first attempt at a new target decides (by count or probability)
// whether the target enters an episode; attempts during an episode fail and
// consume it. Determinism holds because targets are keyed, never iterated.
func (p *Plan) transientFault(r *ruleState, op nand.Op, addr nand.PageAddr) error {
	key := transKey{op: op, addr: addr}
	st, seen := r.trans[key]
	if !seen {
		st = &transState{}
		r.trans[key] = st
		r.matched++
		if r.Prob > 0 {
			if p.rng.Float64() < r.Prob {
				st.remaining = r.Times
			}
		} else if r.matched == r.AfterN {
			st.remaining = r.Times
		}
	}
	if st.remaining <= 0 {
		return nil
	}
	st.remaining--
	p.fired = append(p.fired, Fired{Rule: r.Name, Op: op, Addr: addr, Count: r.matched})
	return r.Err
}

// CorruptData implements nand.DataCorrupter: KindCorruptData rules damage
// the payload of matching read/program targets with seeded, deterministic
// bit flips. Episode bookkeeping mirrors transientFault — the first attempt
// at a new target decides (by count or probability) whether it enters an
// episode; attempts during an episode corrupt the payload and consume it.
func (p *Plan) CorruptData(op nand.Op, addr nand.PageAddr, data []byte) []byte {
	if p.crashed || len(data) == 0 {
		return data
	}
	for _, r := range p.rules {
		if r.Kind != KindCorruptData {
			continue
		}
		if r.Op != AnyOp && r.Op != op {
			continue
		}
		if r.Seg != AnySeg && r.Seg != p.segOf(addr) {
			continue
		}
		key := transKey{op: op, addr: addr}
		st, seen := r.trans[key]
		if !seen {
			st = &transState{}
			r.trans[key] = st
			r.matched++
			if r.Prob > 0 {
				if p.rng.Float64() < r.Prob {
					st.remaining = r.Times
				}
			} else if r.matched == r.AfterN {
				st.remaining = r.Times
			}
		}
		if st.remaining <= 0 {
			continue
		}
		st.remaining--
		p.fired = append(p.fired, Fired{Rule: r.Name, Op: op, Addr: addr, Count: r.matched})
		return flipBits(p.seed, uint64(addr), uint64(r.matched), uint64(st.remaining), data)
	}
	return data
}

// flipBits returns a copy of data with 1–3 bits flipped at positions derived
// deterministically from (seed, addr, matched, rem): the same plan against
// the same workload damages the same bits on every run, so a failing seed
// replays exactly.
func flipBits(seed, addr, matched, rem uint64, data []byte) []byte {
	out := append([]byte(nil), data...)
	h := seed ^ addr*0x9E3779B97F4A7C15 ^ matched<<32 ^ rem
	flips := 1 + int(h>>61)%3
	for i := 0; i < flips; i++ {
		// splitmix64-style finalizer: every flip lands at an independent bit.
		h += 0x9E3779B97F4A7C15
		z := h
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		z ^= z >> 31
		bit := z % uint64(len(out)*8)
		out[bit/8] ^= 1 << (bit % 8)
	}
	return out
}

// MutateOOB implements nand.FaultHook: KindTornOOB rules corrupt matching
// headers and cut power; header-matched KindCrash rules cut power after the
// matching header lands intact.
func (p *Plan) MutateOOB(addr nand.PageAddr, oob []byte) []byte {
	for _, r := range p.rules {
		if r.spent || r.Kind != KindCrash || r.HeaderType == 0 {
			continue
		}
		if r.Seg != AnySeg && r.Seg != p.segOf(addr) {
			continue
		}
		if h, err := header.Unmarshal(oob); err != nil || h.Type != r.HeaderType {
			continue
		}
		if !p.triggers(r) {
			continue
		}
		p.fired = append(p.fired, Fired{Rule: r.Name, Op: nand.OpProgram, Addr: addr, Count: r.matched})
		p.crashed = true
		return oob // this header lands intact; the NEXT operation sees the crash
	}
	for _, r := range p.rules {
		if r.spent || r.Kind != KindTornOOB {
			continue
		}
		if r.Seg != AnySeg && r.Seg != p.segOf(addr) {
			continue
		}
		if r.HeaderType != 0 {
			h, err := header.Unmarshal(oob)
			if err != nil || h.Type != r.HeaderType {
				continue
			}
		}
		if !p.triggers(r) {
			continue
		}
		p.fired = append(p.fired, Fired{Rule: r.Name, Op: nand.OpProgram, Addr: addr, Count: r.matched})
		p.crashed = true
		torn := append([]byte(nil), oob...)
		if len(torn) == 0 {
			torn = []byte{0xFF}
		}
		torn[0] ^= 0xFF // destroys the header magic: recovery sees garbage
		if len(torn) > 1 {
			torn[len(torn)/2] ^= 0xA5
		}
		return torn
	}
	return oob
}

// Canonical plans for the torture harness's three acceptance scenarios.

// GCCopyError injects a device failure into the n-th cleaner copy-forward
// (foreground I/O is untouched).
func GCCopyError(n int64) *Plan {
	return NewPlan(0, Rule{Name: "gc-copy-error", Kind: KindError, Op: nand.OpCopy, Seg: AnySeg, AfterN: n})
}

// TornNote tears the n-th log note of the given header type: the note's
// header bytes are corrupted as they are programmed and power fails.
func TornNote(t header.Type, n int64) *Plan {
	return NewPlan(0, Rule{Name: "torn-note", Kind: KindTornOOB, Seg: AnySeg, HeaderType: t, AfterN: n})
}

// CrashAtScan cuts power at the n-th bulk OOB scan — mid-activation or
// mid-recovery, whichever issues it.
func CrashAtScan(n int64) *Plan {
	return NewPlan(0, Rule{Name: "crash-at-scan", Kind: KindCrash, Op: nand.OpScanOOB, Seg: AnySeg, AfterN: n})
}

// CrashAtChunk cuts power right after the n-th checkpoint chunk lands —
// mid-checkpoint, before the generation commits. The partial generation's
// chunks are intact but unanchored (or the anchor still names the previous
// generation), so recovery must not trust them.
func CrashAtChunk(n int64) *Plan {
	return NewPlan(0, Rule{Name: "crash-at-chunk", Kind: KindCrash, Seg: AnySeg, HeaderType: header.TypeCheckpoint, AfterN: n})
}

// RandomTransients is a probabilistic retryable-fault plan: each distinct
// read or program target independently enters a transient episode with
// probability prob, failing its first times attempts before recovering —
// the workload a bounded retry policy must absorb without surfacing errors.
func RandomTransients(seed uint64, prob float64, times int64) *Plan {
	return NewPlan(seed,
		Rule{Name: "transient-read", Kind: KindTransient, Op: nand.OpRead, Seg: AnySeg, Prob: prob, Times: times},
		Rule{Name: "transient-program", Kind: KindTransient, Op: nand.OpProgram, Seg: AnySeg, Prob: prob, Times: times},
	)
}

// RandomCorruptData is the payload-corruption analogue of RandomTransients:
// each distinct read or program target independently corrupts its first
// times attempts with probability prob. Corrupted reads are transient (the
// device detects them and a re-read clears the damage); corrupted programs
// persist behind an intact fingerprint until the page is rewritten, so every
// later read of the page reports nand.ErrCorruptData.
func RandomCorruptData(seed uint64, prob float64, times int64) *Plan {
	return NewPlan(seed,
		Rule{Name: "corrupt-read", Kind: KindCorruptData, Op: nand.OpRead, Seg: AnySeg, Prob: prob, Times: times},
		Rule{Name: "corrupt-program", Kind: KindCorruptData, Op: nand.OpProgram, Seg: AnySeg, Prob: prob, Times: times},
	)
}

// CorruptNth corrupts the payload of the n-th distinct target of the given
// operation, once — a read clears on retry, a program persists until the
// page is rewritten.
func CorruptNth(op nand.Op, n int64) *Plan {
	return NewPlan(0, Rule{Name: "corrupt-nth", Kind: KindCorruptData, Op: op, Seg: AnySeg, AfterN: n})
}

// RandomFaults is a probabilistic background-noise plan: every operation
// class fails independently with the given probability, reproducibly from
// seed.
func RandomFaults(seed uint64, prob float64) *Plan {
	return NewPlan(seed,
		Rule{Name: "rand-read", Kind: KindError, Op: nand.OpRead, Seg: AnySeg, Prob: prob},
		Rule{Name: "rand-program", Kind: KindError, Op: nand.OpProgram, Seg: AnySeg, Prob: prob},
		Rule{Name: "rand-erase", Kind: KindError, Op: nand.OpErase, Seg: AnySeg, Prob: prob},
		Rule{Name: "rand-copy", Kind: KindError, Op: nand.OpCopy, Seg: AnySeg, Prob: prob},
	)
}
