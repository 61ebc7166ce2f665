// lint fixture: patterns that look close to violations but are all
// legitimate. The lint must report this file clean — each section guards
// against a specific false-positive regression.
#include "common/annotations.hpp"
#include "common/fault.hpp"
#include "common/file.hpp"
#include "crypto/rsa.hpp"

namespace worm {

// The WORM_FAULT_POINT macro is the sanctioned fault-point vocabulary; the
// lexical scan must not mistake its use (or prose about evaluate_site) for
// a direct evaluate_site() bypass.
common::FaultKind sanctioned_fault_point(common::FaultInjector* fault) {
  return WORM_FAULT_POINT(fault, "fixture.site");
}

// Mentioning std::mutex or std::chrono in a comment is prose, not code.
// A string literal saying "std::mutex" or "ScpuDevice" is data, not code.
const char* kDoc = "prefer AnnotatedMutex over std::mutex; see ScpuDevice";

// The annotated wrappers and condition_variable_any are the sanctioned
// vocabulary.
common::AnnotatedMutex g_mu;
int g_count GUARDED_BY(g_mu) = 0;

// Blocking pipeline waits are fine once the state_mu_ guard's scope has
// closed, and a guard on some *other* mutex must not arm the rule. Prose
// like "never call ticket.get() under state_mu_" is prose.
common::AnnotatedSharedMutex state_mu_;
common::AnnotatedMutex other_mu_;

int wait_after_unlock(int (*blocking_get)()) {
  int mirror = 0;
  {
    common::ExclusiveLock lk(state_mu_);
    ++mirror;  // non-blocking work under the store lock is fine
  }
  // Guard scope closed: waiting on the pipeline is now legal.
  return blocking_get();
}

int wait_under_other_lock(int (*source)()) {
  common::MutexLock lk(other_mu_);
  struct Holder {
    int (*get)();
  } ticket{source};
  return ticket.get();  // .get( under a non-state_mu_ lock is not the rule
}

bool consume_verdict(const crypto::RsaPublicKey& pk, common::ByteView payload,
                     const common::Bytes& sig) {
  // Multi-line continuation: the call is the RHS of an assignment, so the
  // statement-boundary check must not read line 2 as a bare call.
  bool ok =
      crypto::rsa_verify(pk, payload, sig);
  // Explicit discard with justification is the sanctioned escape hatch.
  (void)crypto::rsa_verify(pk, payload, sig);  // warm-up only
  return ok;
}

}  // namespace worm

// Prose naming the crypto kernels is prose, and a string saying
// "process_blocks" or "force_backend" is data. Only a real call outside
// src/crypto/ trips crypto-isolation — see mont_mul_into docs.
const char* kKernelDoc = "hot loop dispatches via process_blocks(...)";

// common::File's own calls are the sanctioned file API, and a member named
// like a syscall is not the syscall: only a global `::pwrite(` or a stream
// type trips file-io. The socket layer's ::read and ::close are not file
// calls, and prose or a string saying "std::ofstream" is neither.
struct FileLike {
  void open() {}
  void rename(const char*) {}
  void fsync() {}
};
void file_near_misses(FileLike& f, common::File& file, int fd, char* buf) {
  f.open();
  f.rename("elsewhere");
  f.fsync();
  file.rename_to("elsewhere");
  (void)::read(fd, buf, 1);
  ::close(fd);
}
const char* kFileDoc = "std::ofstream and ::pwrite live in common/file.cpp";
