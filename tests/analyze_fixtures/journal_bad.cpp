// analyze fixture [journal-ordering] — known-bad. Six WAL violations:
// a mutation with no journal append at all, one whose only journal append
// sits inside a branch that does not dominate it, an SCPU answer applied
// before it is journaled, two journaled only inside a branch: one applied
// after the branch, one in its sibling, and an entry edit (a litigation
// answer's fold) applied with no journaled answer.
#include "common/bytes.hpp"

namespace fixture {

void BadStore::apply_unjournaled(Entry e) {
  // BUG: durable state changes with nothing in the WAL ahead of it.
  vrdt_.put_active(e);
}

void BadStore::apply_branch_journal(Entry e, bool fast) {
  if (fast) {
    journal_put_deleted(e.proof);
  }
  // BUG: on the !fast path the mutation was never journaled.
  vrdt_.put_deleted(e.proof);
}

void BadStore::apply_then_journal(Answer a) {
  // BUG: a crash between the two leaves host state no replay reproduces.
  apply_answer_locked(a.frame, a.payload);
  journal_answer(a.seq, &a.payload);
}

void BadStore::journal_answer_in_branch(Answer a, bool durable) {
  if (durable) {
    journal_answer(a.seq, &a.payload);
  }
  // BUG: on the !durable path the answer was never journaled.
  apply_write_ack_locked(a.payload, a.items, a.mode);
}

void BadStore::journal_answer_in_sibling(Answer a, bool rejected) {
  if (rejected) {
    journal_answer(a.seq, nullptr);
  } else {
    // BUG: the rejection's record does not journal this answer.
    apply_answer_locked(a.frame, a.payload);
  }
}

void BadStore::hold_unjournaled(Answer a) {
  // BUG: the fold rewrites the entry through put_active; nothing in the
  // WAL says the SCPU answered.
  apply_lit_update(a.sn, decode_lit(a.payload));
}

}  // namespace fixture
