#ifndef FASTCOMMIT_TESTS_SUPPORT_ALLOC_COUNTER_H_
#define FASTCOMMIT_TESTS_SUPPORT_ALLOC_COUNTER_H_

#include <cstdint>

namespace fastcommit::test_support {

/// Heap allocations made through the global operator new (every form,
/// arrays and aligned ones included) since the process started. Defined by
/// tests/support/counting_new.cc, which replaces operator new for the one
/// test binary it is linked into; the library under src/ never links it.
int64_t AllocationCount();

}  // namespace fastcommit::test_support

#endif  // FASTCOMMIT_TESTS_SUPPORT_ALLOC_COUNTER_H_
