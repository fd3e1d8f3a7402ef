// The fast tier (JitTier::kFast): host compiler at -O0.
//
// -O0 cuts the host-compiler invocation to a fraction of the optimized
// tier's latency, so a trace's first execution starts running compiled code
// as early as possible; the tier upgrade (trace_compiler.cc) swaps in the
// cc-o2 artifact asynchronously once the trace proves hot.
#include "jit/backend_cc.h"

namespace avm::jit {

JitBackend& CcBackendO0() {
  static CcBackend* backend = new CcBackend("cc-o0", JitTier::kFast, "-O0");
  return *backend;
}

}  // namespace avm::jit
