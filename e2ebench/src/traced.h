// The traced run: an in-process replay of a workload's seeded request
// stream that times each layer boundary separately (see traced.cc).
#ifndef E2EBENCH_TRACED_H_
#define E2EBENCH_TRACED_H_

#include "bench_common.h"

namespace e2e {

int TraceMain(const Args& args);

}  // namespace e2e

#endif  // E2EBENCH_TRACED_H_
