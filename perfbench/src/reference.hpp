// Host-speed reference: a fixed CPU kernel that uses none of the
// repository's code, so no change to the libraries can move its time.
//
// The benchmark's host is a share of a machine whose cores slow down and
// speed up with other tenants' load, by up to 60 % per core within seconds.
// main.cpp times this kernel just before and just after every iteration;
// run.py divides each iteration's times by the kernel's to report them at a
// fixed reference speed.
#pragma once

namespace perfbench {

/// Runs the kernel on `threads` threads at once (the calling thread when 1);
/// returns the mean wall time per thread, about 0.1 s on an unloaded core.
[[nodiscard]] double reference_seconds(int threads);

}  // namespace perfbench
