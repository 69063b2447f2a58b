#include "host.h"

#include <fstream>
#include <sstream>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) ||                                      \
    __has_feature(undefined_behavior_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#endif

namespace perfbench {
namespace {

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    size_t start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "unknown" : line.substr(start);
  }
  return "unknown";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

std::string HostFingerprint() {
  std::ostringstream s;
  s << "nproc=" << std::thread::hardware_concurrency() << " cpu=\""
    << CpuModel() << "\" compiler=\"" << Compiler()
    << "\" build=" << PERFBENCH_BUILD_TYPE;
#if defined(NDEBUG)
  s << " ndebug=1";
#else
  s << " ndebug=0";
#endif
  return s.str();
}

std::string BuildRefusal() {
#if defined(PERFBENCH_SANITIZED)
  return "built with a sanitizer";
#elif !defined(__OPTIMIZE__)
  return "built without optimisation";
#else
  return "";
#endif
}

}  // namespace perfbench
