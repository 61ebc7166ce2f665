// analyze fixture [journal-ordering] — known-good. Covers the legal
// shapes: journal-then-mutate, journal-the-answer-then-apply-it, an answer
// fold (mutations whose caller journaled the answer, an entry edit's
// find -> edit -> put_active included), the recovery replay fold
// (mutations derived from the WAL itself), and an explicit reviewed
// waiver.
#include "common/bytes.hpp"

namespace fixture {

void GoodStore::apply_two_branches(Entry e, bool tombstone) {
  journal_put_deleted(e.proof);
  if (tombstone) {
    vrdt_.put_deleted(e.proof);
    return;
  }
  shred(e);
  vrdt_.put_deleted(e.proof);
}

void GoodStore::land(Answer a) {
  journal_answer(a.seq, &a.payload);
  if (a.write) {
    apply_write_ack_locked(a.payload, a.items, a.mode);
    return;
  }
  apply_answer_locked(a.frame, a.payload);
}

void GoodStore::land_or_reject(Answer a, bool rejected) {
  if (rejected) {
    journal_answer(a.seq, nullptr);
  } else {
    journal_answer(a.seq, &a.payload);
    apply_answer_locked(a.frame, a.payload);
  }
}

std::vector<Sn> GoodStore::apply_answer_locked(Frame frame, Payload payload) {
  // The caller journaled this answer; the fold journals nothing.
  vrdt_.apply_window(decode_window(payload));
  return apply_write_ack_locked(payload, items(frame), mode(frame));
}

void GoodStore::strengthen(Answer a) {
  journal_answer(a.seq, &a.payload);
  apply_strengthen_results(decode_strengthen(a.payload));
}

void GoodStore::apply_lit_update(Sn sn, LitUpdate up) {
  // An answer fold: its caller journaled the answer it edits the entry by.
  std::optional<Entry> e = vrdt_.find(sn);
  if (!e.has_value()) return;
  e->vrd.attr = up.attr;
  vrdt_.put_active(e->vrd);
}

void GoodStore::apply_strengthen_results(Results results) {
  for (Result& r : results) {
    std::optional<Entry> e = vrdt_.find(r.sn);
    if (!e.has_value()) continue;
    e->vrd.metasig = r.metasig;
    vrdt_.put_active(e->vrd);
  }
}

std::vector<Sn> GoodStore::apply_write_ack_locked(Payload payload,
                                                  Items items, Mode mode) {
  vrdt_.put_active(vrd_of(payload, items, mode));
  return sns_of(payload);
}

void GoodStore::replay(Replay replay) {
  for (const JournalRecord& rec : replay.records) {
    // Replay applies what the WAL already holds; journaling again would
    // double every record.
    vrdt_.put_deleted(decode(rec));
    apply_answer_locked(intent_of(rec), answer_of(rec));
  }
}

void GoodStore::rebuild_in_memory(Entry e) {
  vrdt_.trim_below(e.sn);  // analyze[journal-ordering]: scratch VRDT, discarded before commit
}

}  // namespace fixture
