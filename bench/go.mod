// The benchmark is a module of its own so that it builds from its own
// directory and the repository's build files stay as they are. Its path
// sits under iosnap/, which is what lets it import iosnap/internal/...
module iosnap/bench

go 1.22

require iosnap v0.0.0

replace iosnap => ../
