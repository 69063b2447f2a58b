#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <string>

namespace perfbench {

/// One line naming the host and build a result came from: hardware
/// threads, CPU model (from /proc/cpuinfo, "unknown" where unreadable),
/// compiler and build type. Wall-clock numbers compare only between runs
/// with the same fingerprint.
std::string HostFingerprint();

/// Non-empty when this binary was built without optimisation or with a
/// sanitizer: its wall-clock numbers would be meaningless, so the
/// benchmark refuses to run.
std::string BuildRefusal();

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
