#include "worm/worm_store.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/serial.hpp"
#include "crypto/chained_hash.hpp"
#include "crypto/sha256.hpp"

namespace worm::core {

using common::Bytes;
using common::ByteView;
using common::SimTime;

namespace {
/// Pattern source for the random shredding passes.
crypto::Drbg& shred_rng() {
  static thread_local crypto::Drbg rng(0xdead5eed);
  return rng;
}
}  // namespace

void StoreConfig::validate() const {
  WORM_REQUIRE(compaction_min_run > 0,
               "StoreConfig.compaction_min_run must be nonzero");
  WORM_REQUIRE(mailbox.max_batch > 0 && mailbox.max_batch <= kMaxBatchItems,
               "StoreConfig.mailbox.max_batch must be in [1, 1024]");
  WORM_REQUIRE(mailbox.retry.max_attempts > 0,
               "StoreConfig.mailbox.retry.max_attempts must be nonzero");
  WORM_REQUIRE(mailbox.retry.backoff_factor > 0,
               "StoreConfig.mailbox.retry.backoff_factor must be nonzero");
  WORM_REQUIRE(mailbox.retry.initial_backoff.ns >= 0,
               "StoreConfig.mailbox.retry.initial_backoff must not be "
               "negative");
  WORM_REQUIRE(mailbox.retry.response_timeout.ns >= 0,
               "StoreConfig.mailbox.retry.response_timeout must not be "
               "negative");
  WORM_REQUIRE(mailbox.retry.deadline.ns >= 0,
               "StoreConfig.mailbox.retry.deadline must not be negative");
  WORM_REQUIRE(mailbox.retry.deadline >= mailbox.retry.initial_backoff,
               "StoreConfig.mailbox.retry.deadline is shorter than "
               "retry.initial_backoff (inverted durations)");
  WORM_REQUIRE(!pipeline.enabled || pipeline.queue_capacity > 0,
               "StoreConfig.pipeline.queue_capacity must be nonzero");
}

namespace {
/// Validates before any member that depends on the config is constructed.
const StoreConfig& validated(const StoreConfig& config) {
  config.validate();
  return config;
}
}  // namespace

WormStore::WormStore(common::SimClock& clock, Firmware& firmware,
                     storage::RecordStore& records, StoreConfig config)
    : clock_(clock),
      firmware_(firmware),
      records_(records),
      config_(std::move(config)),
      channel_(firmware, validated(config_).mailbox.retry, config_.fault),
      journal_(config_.journal_path, config_.fault) {
  // Out-of-band deployment wiring: interrupt registration and policy
  // parameters a real host learns at provisioning time. Everything else —
  // including this constructor's heartbeat and status fetch — crosses the
  // mailbox.
  firmware_.set_host_agent(this);
  short_sig_lifetime_ = firmware_.config().short_sig_lifetime;
  records_.set_fault_injector(config_.fault);

  try {
    // Seed the scheduling mirrors — non-zero when the firmware was restored
    // from battery-backed NVRAM before this store attached — and continue
    // the crossing sequence where the device last saw it, so fresh commands
    // can never collide with the dedup cache.
    ScpuStatus st = channel_.status();
    sn_current_mirror_ = st.sn_current;
    sn_base_mirror_ = st.sn_base;
    deferred_mirror_count_ = st.deferred_count;
    deferred_mirror_earliest_ = st.earliest_deadline;
    channel_.set_next_seq(st.last_seq + 1);
    heartbeat_ = channel_.heartbeat();
  } catch (const ScpuDeadError&) {
    // Booting over a zeroized device: come up in read-only verified mode —
    // reads are served from whatever proofs the host still holds.
    degraded_ = true;
  }

  if (config_.pipeline.enabled) {
    pipeline_ = std::make_unique<WritePipeline>(
        config_.pipeline, config_.mailbox.max_batch,
        [this](std::vector<WritePipeline::Pending>&& group) {
          flush_group(std::move(group));
        });
  }
}

WormStore::~WormStore() {
  // Destruction without close() is the crash path: stop the committer and
  // fail queued tickets without flushing — their journaled admissions are
  // recover()'s to re-execute. Joins the committer before any member the
  // flush touches can go away.
  if (pipeline_ != nullptr) pipeline_->shutdown_drop();
  firmware_.set_host_agent(nullptr);
}

void WormStore::require_mutable() const {
  if (degraded_) {
    throw common::ReadOnlyStoreError(
        "store is in read-only verified mode (SCPU zeroized); mutation "
        "rejected");
  }
}

void WormStore::enter_degraded(const ScpuDeadError& cause) {
  degraded_ = true;
  throw common::ReadOnlyStoreError(
      std::string("SCPU zeroized; store degraded to read-only verified "
                  "mode: ") +
      cause.what());
}

// ---------------------------------------------------------------------------
// Journaled sequenced crossings (WAL discipline: intent before send, the
// device's answer journaled before it is applied)
// ---------------------------------------------------------------------------

namespace {
/// kIntent payload: seq, exact wire frame, superseded admission ids.
Bytes intent_record(std::uint64_t seq, ByteView frame,
                    const std::vector<std::uint64_t>& qids) {
  common::ByteWriter w;
  w.u64(seq);
  w.blob(frame);
  w.u32(static_cast<std::uint32_t>(qids.size()));
  for (std::uint64_t qid : qids) w.u64(qid);
  return w.take();
}

/// True when a crossing failed because the device answered with a refusal:
/// it did NOT execute the command. A timeout may have executed it (its
/// intent stays pending, and the next sequenced crossing or recover()
/// resends it through the device-side dedup); device death and host faults
/// are not answers at all.
bool device_rejected(const std::exception_ptr& failure) {
  try {
    std::rethrow_exception(failure);
  } catch (const ScpuDeadError&) {
    return false;
  } catch (const ChannelTimeoutError&) {
    return false;
  } catch (const ChannelError&) {
    return true;
  } catch (...) {
    return false;
  }
}

/// Tries the append of the device's answer gets before a transient journal
/// fault fails it: the store holds the answer by then, and a failure leaves
/// a command whose fate is known pending.
constexpr int kAnswerJournalAttempts = 3;

/// The records a journaled kWriteBatch frame staged. Other opcodes stage
/// nothing; a frame that does not parse names nothing to trust.
std::vector<Firmware::BatchItem> staged_items(ByteView frame) {
  try {
    if (ScpuChannel::request_opcode(frame) == OpCode::kWriteBatch) {
      return ScpuChannel::decode_write_batch_request(frame).items;
    }
  } catch (const common::ParseError&) {
    // The device parses with the same decoder, so it never ran this frame.
  }
  return {};
}
}  // namespace

ScpuChannel::Prepared WormStore::journal_intent(
    Bytes frame, const std::vector<std::uint64_t>& qids) {
  ScpuChannel::Prepared cmd = channel_.prepare(std::move(frame));
  if (journal_.enabled()) {
    // One record both journals the intent AND supersedes the admissions it
    // carries: after it, recovery resends this exact frame (the device's
    // dedup cache makes that exactly-once) and must NOT also re-execute the
    // kQueuedWrite records it absorbs — atomicity a separate "consume qid"
    // record could not give us. Checkpoints stop carrying them too.
    journal_.append(JournalRecordType::kIntent,
                    intent_record(cmd.seq, cmd.request, qids), qids);
  }
  pending_seqs_.emplace(cmd.seq, PendingIntent{cmd.request, qids});
  return cmd;
}

void WormStore::journal_answer(std::uint64_t seq, const Bytes* payload) {
  if (journal_.enabled()) {
    common::ByteWriter w;
    w.u64(seq);
    w.boolean(payload != nullptr);
    if (payload != nullptr) w.blob(*payload);
    for (int attempt = 1;; ++attempt) {
      try {
        journal_.append(JournalRecordType::kComplete, w.bytes());
        break;
      } catch (const common::TransientStorageError&) {
        // The failed append wrote nothing, as a crash just before it would.
        if (attempt >= kAnswerJournalAttempts) throw;
      }
    }
  }
  pending_seqs_.erase(seq);
}

void WormStore::cross_sequenced(Bytes frame) {
  resend_pending();
  ScpuChannel::Prepared cmd;
  {
    common::ExclusiveLock lk(state_mu_);
    cmd = journal_intent(std::move(frame));
  }
  Bytes payload;
  std::exception_ptr failure;
  try {
    payload = channel_.send_ok(cmd);
  } catch (...) {
    failure = std::current_exception();
  }
  {
    common::ExclusiveLock lk(state_mu_);
    if (failure != nullptr) {
      // A rejected command never ran; a timed-out one may have, so its
      // intent stays pending for the next sequenced crossing.
      if (device_rejected(failure)) journal_answer(cmd.seq, nullptr);
      std::rethrow_exception(failure);
    }
    journal_answer(cmd.seq, &payload);
    (void)apply_answer_locked(cmd.request, payload);
  }
  maybe_checkpoint();
}

void WormStore::resend_pending(RecoveryReport* report) {
  // Each pass lands or abandons the oldest pending intent, or throws.
  for (;;) {
    ScpuChannel::Prepared cmd;
    {
      common::SharedLock lk(state_mu_);
      if (pending_seqs_.empty()) return;
      cmd.seq = pending_seqs_.begin()->first;
      cmd.request = pending_seqs_.begin()->second.frame;
    }
    Bytes payload;
    std::exception_ptr failure;
    try {
      payload = channel_.send_ok(cmd);
    } catch (...) {
      failure = std::current_exception();
    }
    common::ExclusiveLock lk(state_mu_);
    ++recovery_resent_;
    if (report != nullptr) ++report->resent;
    // A timeout may have executed the command, or the original delivery
    // did: the intent stays pending, and reads of SNs it may hold keep
    // answering unavailable. Device death and host faults stop here too.
    if (failure != nullptr && !device_rejected(failure)) {
      std::rethrow_exception(failure);
    }
    journal_answer(cmd.seq, failure == nullptr ? &payload : nullptr);
    if (failure == nullptr) {
      std::vector<Sn> sns = apply_answer_locked(cmd.request, payload);
      if (report != nullptr) {
        report->recovered_sns.insert(report->recovered_sns.end(), sns.begin(),
                                     sns.end());
      }
    } else {
      // Rejected: deterministic, so the original delivery (if any) was
      // rejected too. Nothing ran; what the frame staged holds plaintext no
      // VRD governs.
      if (report != nullptr) ++report->abandoned;
      recovery_orphan_blocks_ += release_staged(staged_items(cmd.request));
    }
  }
}

std::vector<Sn> WormStore::apply_answer_locked(
    ByteView frame, ByteView payload, std::vector<Expired>* replayed) {
  switch (ScpuChannel::request_opcode(frame)) {
    case OpCode::kWriteBatch: {
      ScpuChannel::ParsedWriteBatch parsed =
          ScpuChannel::decode_write_batch_request(frame);
      return apply_write_ack_locked(payload, parsed.items, parsed.mode,
                                    replayed);
    }
    case OpCode::kLitHold:
    case OpCode::kLitRelease:
      apply_lit_update(ScpuChannel::decode_lit_request_sn(frame),
                       ScpuChannel::decode_lit_response(payload));
      break;
    case OpCode::kStrengthen:
      apply_strengthen_results(
          ScpuChannel::decode_strengthen_response(payload));
      break;
    case OpCode::kCertifyWindow: {
      DeletedWindow merged = ScpuChannel::decode_window_response(payload);
      try {
        vrdt_.apply_window(merged);
        ++ops_.compactions;
      } catch (const common::Error&) {
        // The host no longer holds what the window covers (an insider
        // removed a proof, or another window took part of the span): the
        // signed window is still valid — skip the local compaction.
      }
      break;
    }
    case OpCode::kAdvanceBase: {
      SignedSnBase base = ScpuChannel::decode_base_response(payload);
      Sn new_base = base.sn_base;
      base_ = std::move(base);
      vrdt_.trim_below(new_base);
      sn_base_mirror_ = new_base;
      ++ops_.base_advances;
      break;
    }
    default:
      break;  // a hash audit's empty answer changes no host state
  }
  return {};
}

void WormStore::journal_put_deleted(const DeletionProof& proof) {
  if (!journal_.enabled()) return;
  common::ByteWriter w;
  proof.serialize(w);
  journal_.append(JournalRecordType::kPutDeleted, w.bytes());
}

void WormStore::journal_trim_below(Sn sn_base) {
  if (!journal_.enabled()) return;
  common::ByteWriter w;
  w.u64(sn_base);
  journal_.append(JournalRecordType::kTrimBelow, w.bytes());
}

void WormStore::journal_queued_write(std::uint64_t qid,
                                     const WriteRequest& request) {
  if (!journal_.enabled()) return;
  common::ByteWriter w;
  w.u64(qid);
  request.attr.serialize(w);
  w.boolean(request.mode.has_value());
  if (request.mode.has_value()) {
    w.u8(static_cast<std::uint8_t>(*request.mode));
  }
  w.u32(static_cast<std::uint32_t>(request.payloads.size()));
  for (const auto& p : request.payloads) w.blob(p);
  journal_.append(JournalRecordType::kQueuedWrite, w.bytes(),
                  std::span(&qid, 1));
}

// ---------------------------------------------------------------------------
// Storage helpers
// ---------------------------------------------------------------------------

storage::RecordDescriptor WormStore::store_payload(const Bytes& payload) {
  if (!config_.dedup) return records_.write(payload);
  // Content-addressed sharing: identical payloads reuse one physical record.
  Bytes digest = crypto::Sha256::hash_bytes(payload);
  charge_host(config_.host_model.hash_cost(payload.size()));
  if (auto it = content_index_.find(digest); it != content_index_.end()) {
    ++rd_refs_[it->second.record_id];
    ++ops_.dedup_hits;
    return it->second;
  }
  storage::RecordDescriptor rd = records_.write(payload);
  content_index_.emplace(std::move(digest), rd);
  rd_refs_[rd.record_id] = 1;
  return rd;
}

bool WormStore::release_rd(const storage::RecordDescriptor& rd,
                           storage::ShredPolicy policy) {
  if (config_.dedup) {
    auto it = rd_refs_.find(rd.record_id);
    WORM_CHECK(it != rd_refs_.end() && it->second > 0,
               "WormStore: releasing an untracked shared record");
    if (--it->second > 0) {
      ++ops_.deferred_shreds;  // other virtual records still reference it
      return false;
    }
    rd_refs_.erase(it);
    std::erase_if(content_index_, [&](const auto& kv) {
      return kv.second.record_id == rd.record_id;
    });
  }
  records_.shred(rd, policy, shred_rng());
  return true;
}

// ---------------------------------------------------------------------------
// Writes: every path hands its writes to commit_writes()
// ---------------------------------------------------------------------------

namespace {

/// Write admission, before anything is stored or journaled. A shredding byte
/// the device would sign but RecordStore::shred cannot honor would make a
/// verified deletion that leaves the plaintext on the platter. A retention
/// the firmware refuses would fail every write sharing its kWriteBatch
/// crossing and leave its own blocks allocated.
void check_request(const WriteRequest& request) {
  WORM_REQUIRE(!request.payloads.empty(), "WormStore::write: no payloads");
  WORM_REQUIRE(request.attr.shredding <= storage::ShredPolicy::kCryptoShred,
               "WormStore::write: unknown shredding policy");
  WORM_REQUIRE(request.attr.retention.ns > 0,
               "WormStore::write: retention must be positive");
}

Bytes chained_hash(const std::vector<Bytes>& payloads) {
  crypto::ChainedHash chain;
  for (const auto& p : payloads) chain.add(p);
  return chain.digest_bytes();
}

}  // namespace

void WormStore::stage(const WriteRequest& request, Firmware::BatchItem& item) {
  // 1. Main CPU writes the actual data to disk (§4.2.2 "Write").
  item.attr = request.attr;
  item.rdl.reserve(request.payloads.size());
  std::size_t total = 0;
  for (const auto& p : request.payloads) {
    item.rdl.push_back(store_payload(p));
    total += p.size();
  }

  // 2. Optionally hash on the host (trusted-hash burst model): the SCPU will
  //    audit this hash during idle time. In host-hash mode only the 32-byte
  //    hash crosses the device boundary, not the data.
  if (config_.hash_mode == HashMode::kHostHash) {
    charge_host(config_.host_model.hash_cost(total));
    item.claimed_hash = chained_hash(request.payloads);
  } else {
    item.payloads = request.payloads;
  }
}

void WormStore::stage(WritePipeline::Pending& p, Firmware::BatchItem& item) {
  item.attr = p.attr;
  item.rdl.reserve(p.payloads.size());
  for (const auto& b : p.payloads) item.rdl.push_back(store_payload(b));
  if (config_.hash_mode == HashMode::kHostHash) {
    item.claimed_hash = p.claimed_hash;  // hashed on the admitting thread
  } else {
    item.payloads = std::move(p.payloads);
  }
}

std::size_t WormStore::release_staged(
    const std::vector<Firmware::BatchItem>& items) {
  std::vector<Expired> records;
  for (const Firmware::BatchItem& item : items) {
    for (const auto& rd : item.rdl) {
      records.push_back({rd, storage::ShredPolicy::kZeroFill});
    }
  }
  return release_records_locked(std::move(records));
}

std::vector<storage::RecordDescriptor> WormStore::named_records_locked()
    const {
  std::vector<storage::RecordDescriptor> named;
  for (Sn sn : vrdt_.active_sns()) {
    std::optional<Vrdt::Entry> e = vrdt_.find(sn);
    named.insert(named.end(), std::make_move_iterator(e->vrd.rdl.begin()),
                 std::make_move_iterator(e->vrd.rdl.end()));
  }
  for (const auto& [seq, intent] : pending_seqs_) {
    for (const Firmware::BatchItem& item : staged_items(intent.frame)) {
      named.insert(named.end(), item.rdl.begin(), item.rdl.end());
    }
  }
  return named;
}

void WormStore::drop_named_blocks(
    std::vector<Expired>& records,
    const std::vector<storage::RecordDescriptor>& named) {
  if (records.empty()) return;
  std::set<std::uint64_t> keep;
  for (const storage::RecordDescriptor& rd : named) {
    keep.insert(rd.blocks.begin(), rd.blocks.end());
  }
  const std::uint64_t count = records_.device().block_count();
  for (Expired& x : records) {
    std::erase_if(x.rd.blocks, [&](std::uint64_t b) {
      return b >= count || keep.contains(b);
    });
  }
}

std::size_t WormStore::release_records_locked(std::vector<Expired> records) {
  drop_named_blocks(records, named_records_locked());
  std::size_t shredded = 0;
  for (Expired& x : records) {
    try {
      if (release_rd(x.rd, x.policy)) shredded += x.rd.blocks.size();
    } catch (const common::StorageError&) {
      // The caller's own error, if any, is the one that stands; the shred
      // is retried before the next checkpoint.
      owed_shreds_.push_back(std::move(x));
    }
  }
  return shredded;
}

void WormStore::commit_writes(std::span<const UnstagedWrite> writes,
                              const Landed& landed) {
  auto mode_of = [this](const UnstagedWrite& w) {
    const std::optional<WitnessMode>& mode =
        w.admitted != nullptr ? w.admitted->mode : w.request->mode;
    return mode.value_or(config_.default_mode);
  };
  const std::size_t max_batch = config_.mailbox.max_batch;
  std::size_t first = 0;
  while (first < writes.size()) {
    // Consecutive same-mode writes share a crossing (the wire command
    // carries one mode), at most max_batch of them.
    const WitnessMode mode = mode_of(writes[first]);
    std::size_t end = first + 1;
    while (end < writes.size() && end - first < max_batch &&
           mode_of(writes[end]) == mode) {
      ++end;
    }

    // 0. Land what the device has not answered yet, so this chunk is the
    //    one unanswered command it holds.
    resend_pending();

    // 1. Stage the chunk and journal its intent. Later chunks stay unstaged
    //    until their turn, so a rejection that stops the caller leaves no
    //    plaintext behind.
    std::vector<Firmware::BatchItem> items;
    ScpuChannel::Prepared cmd;
    {
      common::ExclusiveLock lk(state_mu_);
      mailbox_.queue_hwm =
          std::max<std::uint64_t>(mailbox_.queue_hwm, writes.size());
      std::vector<std::uint64_t> qids;
      items.reserve(end - first);
      try {
        for (std::size_t k = first; k < end; ++k) {
          const UnstagedWrite& w = writes[k];
          Firmware::BatchItem& item = items.emplace_back();
          if (w.admitted != nullptr) {
            stage(*w.admitted, item);
          } else {
            stage(*w.request, item);
          }
          if (w.qid != 0) qids.push_back(w.qid);
        }
        // Encode into the store's reusable arena (no buffer growth once
        // warm), then take one exact-size copy for the journal/retry owner.
        common::ByteWriter w = encode_scratch_.writer();
        ScpuChannel::encode_write_batch_into(w, items, mode,
                                             config_.hash_mode);
        common::ByteView encoded = w.written();
        cmd = journal_intent(Bytes(encoded.begin(), encoded.end()), qids);
      } catch (...) {
        // No intent names what the chunk staged, so no later boot would
        // zero it: release it now, as a rejected chunk does.
        release_staged(items);
        throw;
      }
      writes_in_flight_ = true;
    }

    // 2. Cross with the store lock released: reads and admissions go on
    //    while the SCPU signs.
    Bytes payload;
    std::exception_ptr failure;
    try {
      payload = channel_.send_ok(cmd);
    } catch (...) {
      failure = std::current_exception();
    }

    // 3. Journal the answer, apply it and resolve the chunk.
    {
      common::ExclusiveLock lk(state_mu_);
      writes_in_flight_ = false;
      if (failure != nullptr) {
        // Timeouts (the intent stays pending), device death and host faults
        // stop the commit.
        if (!device_rejected(failure)) std::rethrow_exception(failure);
        // Definitive rejection: nothing in the chunk ran, and the answered
        // intent consumes its admissions. What it staged holds plaintext no
        // VRD governs.
        journal_answer(cmd.seq, nullptr);
        release_staged(items);
        for (std::size_t k = first; k < end; ++k) {
          landed(k, kInvalidSn, failure);
        }
      } else {
        // A failed append applies nothing: the intent stays pending, and
        // the next crossing resends it and lands the answer from the
        // device's response cache.
        journal_answer(cmd.seq, &payload);
        std::vector<Sn> sns = apply_write_ack_locked(payload, items, mode);
        ++mailbox_.batches;
        mailbox_.batched_writes += sns.size();
        for (std::size_t k = 0; k < sns.size(); ++k) {
          landed(first + k, sns[k], nullptr);
        }
      }
    }
    // 4. With the chunk's tickets resolved, checkpoint if it is due.
    maybe_checkpoint();
    first = end;
  }
}

std::vector<Sn> WormStore::apply_write_ack_locked(
    ByteView payload, std::vector<Firmware::BatchItem>& items,
    WitnessMode mode, std::vector<Expired>* replayed) {
  ScpuChannel::BatchAck ack = ScpuChannel::decode_write_batch_response(payload);
  WORM_CHECK(ack.witnesses.size() == items.size(),
             "write ack: witness count mismatch");
  std::vector<Sn> sns;
  sns.reserve(items.size());
  std::vector<Expired> late;
  for (std::size_t k = 0; k < items.size(); ++k) {
    WriteWitness& witness = ack.witnesses[k];
    sns.push_back(witness.sn);
    sn_current_mirror_ = std::max(sn_current_mirror_, witness.sn);
    const std::optional<Vrdt::Entry> e = vrdt_.find(witness.sn);
    if (witness.sn < sn_base_mirror_ ||
        (e.has_value() ? e->kind == Vrdt::Entry::Kind::kDeleted
                       : vrdt_.find_window(witness.sn) != nullptr)) {
      // A lost answer landing after its SN was deleted (a proof, a window,
      // or below the base): the deletion stands, and the expiry found no VRD
      // to shred, so the record goes now, by its own policy.
      for (const auto& rd : items[k].rdl) {
        late.push_back({rd, witness.attr.shredding});
      }
      continue;
    }
    // Main CPU assembles the VRD and persists it in the VRDT.
    Vrd vrd;
    vrd.sn = witness.sn;
    vrd.attr = witness.attr;
    vrd.rdl = std::move(items[k].rdl);
    vrd.data_hash = std::move(witness.data_hash);
    vrd.metasig = std::move(witness.metasig);
    vrd.datasig = std::move(witness.datasig);
    vrdt_.put_active(vrd);
    if (mode != WitnessMode::kStrong) {
      note_deferred_witness(witness.attr.creation_time);
    }
  }
  ops_.writes += sns.size();
  // The ack's trailing attestation can only run ahead of the per-witness
  // maximum (other writes may have landed on the device since), never behind.
  sn_current_mirror_ = std::max(sn_current_mirror_, ack.sn_current_after);
  adopt_epoch_cert_locked(ack.epoch_cert);
  if (replayed != nullptr) {
    replayed->insert(replayed->end(), late.begin(), late.end());
  } else if (!late.empty()) {
    (void)release_records_locked(std::move(late));
  }
  return sns;
}

Sn WormStore::write(const WriteRequest& request) {
  if (pipeline_ != nullptr) {
    // With the pipeline on, synchronous write is an admission plus an
    // immediate ticket wait, which makes the group due.
    return write_async(request).get();
  }
  return write_batch(std::span(&request, 1)).front();
}

std::vector<Sn> WormStore::write_batch(
    std::span<const WriteRequest> requests) {
  for (const WriteRequest& r : requests) check_request(r);
  if (requests.empty()) return {};
  std::vector<UnstagedWrite> writes;
  writes.reserve(requests.size());
  for (const WriteRequest& r : requests) writes.push_back({.request = &r});
  std::vector<Sn> sns;
  sns.reserve(requests.size());
  common::MutexLock commit(commit_mu_);
  require_mutable();
  try {
    maybe_service_deadline();
    commit_writes(writes, [&sns](std::size_t, Sn sn,
                                 const std::exception_ptr& rejected) {
      // The caller gets one answer: a rejection stops the whole call.
      if (rejected) std::rethrow_exception(rejected);
      sns.push_back(sn);
    });
  } catch (const ScpuDeadError& e) {
    enter_degraded(e);
  }
  return sns;
}

// ---------------------------------------------------------------------------
// Group-commit write pipeline (write_async -> committer -> batched crossing)
// ---------------------------------------------------------------------------

WriteTicket WormStore::write_async(WriteRequest request) {
  return *admit(std::move(request), /*blocking=*/true);
}

std::optional<WriteTicket> WormStore::try_write_async(WriteRequest request) {
  return admit(std::move(request), /*blocking=*/false);
}

std::optional<WriteTicket> WormStore::admit(WriteRequest request,
                                            bool blocking) {
  WORM_REQUIRE(pipeline_ != nullptr,
               "WormStore::write_async: StoreConfig.pipeline.enabled is off");
  check_request(request);

  // Claim the queue slot BEFORE journaling, with no state_mu_ held: the
  // committer needs the state lock to free space (lint:
  // blocking-under-state-mu), and a kBusy rejection must leave no
  // kQueuedWrite record behind, or recover() would re-execute a write the
  // caller was told did not happen.
  if (!pipeline_->claim_slot(blocking)) return std::nullopt;

  WritePipeline::Pending p;
  p.attr = request.attr;
  p.mode = request.mode;
  for (const auto& b : request.payloads) p.bytes += b.size();
  if (config_.hash_mode == HashMode::kHostHash) {
    // Hash on the admitting thread, outside the store lock: with N writers
    // the hashing runs N-wide while only the journal append and the group
    // crossing serialize. The committer reuses this digest; the per-write
    // host cost stays on this caller (charged via its own modeled time in
    // benches), not on the shared serialized clock.
    p.claimed_hash = chained_hash(request.payloads);
  }

  try {
    require_mutable();
    p.qid = ++next_qid_;
    // Durability before ack: the admission hits the WAL before the ticket
    // exists, so a resolved ticket always implies a recoverable write. The
    // journal's own lock serializes the append; no store lock is taken, so
    // an admission never waits behind a crossing.
    journal_queued_write(p.qid, request);
  } catch (...) {
    pipeline_->release_reservation();
    throw;
  }
  p.payloads = std::move(request.payloads);
  return pipeline_->submit_reserved(std::move(p));
}

void WormStore::drain_writes() {
  if (pipeline_ == nullptr) return;
  // Bound: every iteration retires at least one committer round, and a round
  // retires up to max_batch admissions; capacity + a margin for admissions
  // racing in while we drain.
  bool drained = pipeline_->drain(config_.pipeline.queue_capacity + 64);
  WORM_CHECK(drained,
             "WormStore::drain_writes: committer failed to drain the queue "
             "within the iteration bound (stuck committer?)");
}

void WormStore::close() {
  if (pipeline_ == nullptr) return;
  drain_writes();
  pipeline_->shutdown_drop();
}

void WormStore::flush_group(std::vector<WritePipeline::Pending>&& group) {
  common::MutexLock commit(commit_mu_);
  std::size_t next = 0;  // first unresolved ticket
  std::exception_ptr err;  // what every unresolved ticket fails with
  try {
    require_mutable();
    maybe_service_deadline();
    std::vector<UnstagedWrite> writes;
    writes.reserve(group.size());
    for (WritePipeline::Pending& p : group) {
      writes.push_back({.admitted = &p, .qid = p.qid});
    }
    commit_writes(writes, [&](std::size_t k, Sn sn,
                              const std::exception_ptr& rejected) {
      // A rejected chunk fails only its own tickets: the intent it completed
      // consumed exactly their admissions, and later chunks still cross.
      if (rejected) {
        pipeline_->resolve_error(group[k], rejected);
      } else {
        pipeline_->resolve_ok(group[k], sn);
      }
      next = k + 1;
    });
  } catch (const ScpuDeadError& e) {
    degraded_ = true;
    err = std::make_exception_ptr(common::ReadOnlyStoreError(
        std::string("SCPU zeroized during a pipeline flush; store degraded "
                    "to read-only verified mode: ") +
        e.what()));
  } catch (...) {
    // Timeouts, degraded-mode refusals, host faults: the waiting tickets get
    // the exception the synchronous path would have thrown. A timed-out
    // intent stays pending; the next sequenced crossing (or recover())
    // lands it exactly-once.
    err = std::current_exception();
  }
  for (std::size_t k = next; k < group.size(); ++k) {
    pipeline_->resolve_error(group[k], err);
  }
}

// ---------------------------------------------------------------------------
// Reads (host-only, §4.2.2; shared lock — readers run in parallel)
// ---------------------------------------------------------------------------

std::vector<Bytes> WormStore::read_payloads(const Vrd& vrd) {
  std::vector<Bytes> payloads;
  payloads.reserve(vrd.rdl.size());
  for (const auto& rd : vrd.rdl) payloads.push_back(records_.read(rd));
  return payloads;
}

std::optional<ReadOutcome> WormStore::read_locked(Sn sn) {
  if (std::optional<Vrdt::Entry> e = vrdt_.find(sn)) {
    if (e->kind == Vrdt::Entry::Kind::kActive) {
      ReadOk ok;
      ok.payloads = read_payloads(e->vrd);
      ok.vrd = std::move(e->vrd);
      return ReadOutcome{std::move(ok)};
    }
    return ReadOutcome{ReadDeleted{std::move(e->proof)}};
  }
  if (const DeletedWindow* w = vrdt_.find_window(sn); w != nullptr) {
    return ReadOutcome{ReadInDeletedWindow{*w}};
  }
  if (sn < sn_base_mirror_) {
    if (base_.has_value() && clock_.now() < base_->expires_at) {
      return ReadOutcome{ReadBelowBase{*base_}};
    }
    return std::nullopt;  // expired base: refreshing needs a mailbox crossing
  }
  if (sn > sn_current_mirror_ &&
      (!pending_seqs_.empty() ||
       (pipeline_ != nullptr && pipeline_->unassigned() > 0))) {
    // A crossing in flight or an unanswered intent may have allocated this
    // SN on the device, and an admitted write the mirror does not cover yet
    // may be about to claim it: a "never existed" answer from an older
    // heartbeat would be a lie the host knows it cannot stand behind (or one
    // the next flush contradicts), and a heartbeat that already counts it
    // finds no entry to serve. Unavailable until the answer is applied.
    return ReadOutcome{ReadUnavailable{
        "SN " + std::to_string(sn) +
            " may be in flight: a crossing, an unanswered command or an "
            "admitted write is pending",
        /*retryable=*/true}};
  }
  if (sn > heartbeat_.sn_current) {
    if (heartbeat_.sig.empty()) {
      // Never obtained a signed heartbeat (booted over a dead device): an
      // unsigned "not allocated" would be worthless to the client.
      return ReadOutcome{ReadUnavailable{
          "no signed SN_current heartbeat held", /*retryable=*/!degraded_}};
    }
    return ReadOutcome{ReadNotAllocated{heartbeat_}};
  }
  if (!pending_seqs_.empty()) {
    // An in-flight sequenced command may have materialized this SN on the
    // device while the host answer was lost; until the next sequenced
    // crossing (or recover()) lands it, absence here is unavailability, not
    // evidence.
    return ReadOutcome{ReadUnavailable{
        "the device has unanswered commands; SN " + std::to_string(sn) +
            " may be in flight",
        /*retryable=*/true}};
  }
  // An allocated, in-window SN with no entry and no proof: the store has
  // lost (or hidden) a record — there is nothing honest to answer.
  return ReadOutcome{ReadFailure{"no entry and no deletion proof for SN " +
                                 std::to_string(sn)}};
}

ReadOutcome WormStore::read_below_base(Sn sn) {
  // Refreshing an expired cached base is the one read-path step that may
  // touch the SCPU; if the device is gone (tamper response), the read still
  // answers — with the last held proof, or an honest unavailability notice.
  std::string failure;
  bool retryable = true;
  try {
    SignedSnBase base = channel_.sign_base();  // rare; cached to expiry
    common::ExclusiveLock lk(state_mu_);
    base_ = base;
    sn_base_mirror_ = base.sn_base;
    return ReadOutcome{ReadBelowBase{std::move(base)}};
  } catch (const ScpuDeadError& e) {
    degraded_ = true;
    failure = std::string("SCPU zeroized and no base proof held for SN ") +
              std::to_string(sn) + ": " + e.what();
    retryable = false;
  } catch (const ChannelError& e) {
    failure = std::string("cannot obtain base proof for SN ") +
              std::to_string(sn) + ": " + e.what();
  }
  common::SharedLock lk(state_mu_);
  if (base_.has_value()) return ReadOutcome{ReadBelowBase{*base_}};
  return ReadOutcome{ReadUnavailable{std::move(failure), retryable}};
}

ReadOutcome WormStore::read(Sn sn) {
  ++ops_.reads;
  ReadOutcome out = [&]() -> ReadOutcome {
    try {
      {
        common::SharedLock lk(state_mu_);
        if (auto r = read_locked(sn)) return std::move(*r);
      }
      // The base proof expired; refreshing it crosses the mailbox, under
      // the commit lock alone. State may have moved while no lock was held
      // (another read may have refreshed it), so answer again from scratch.
      common::MutexLock commit(commit_mu_);
      {
        common::SharedLock lk(state_mu_);
        if (auto r = read_locked(sn)) return std::move(*r);
      }
      return read_below_base(sn);
    } catch (const common::TransientStorageError& e) {
      // Payload read kept failing past the device retry budget: transient
      // unavailability, never silently-wrong bytes.
      return ReadOutcome{ReadUnavailable{
          std::string("payload read failed for SN ") + std::to_string(sn) +
              ": " + e.what(),
          /*retryable=*/true}};
    }
  }();
  if (out.is<ReadUnavailable>()) ++ops_.reads_unavailable;
  return out;
}

std::vector<ReadOutcome> WormStore::read_many(const std::vector<Sn>& sns) {
  ++ops_.read_many_batches;
  std::vector<ReadOutcome> out;
  out.reserve(sns.size());
  for (Sn sn : sns) out.push_back(read(sn));
  return out;
}

// ---------------------------------------------------------------------------
// Litigation
// ---------------------------------------------------------------------------

void WormStore::apply_lit_update(Sn sn, Firmware::LitUpdate up) {
  // put_active keys the entry by its VRD's SN: an entry naming another SN
  // is an insider's forgery, and the answer edits no other slot through it.
  std::optional<Vrdt::Entry> e = vrdt_.find(sn);
  if (!e.has_value() || e->kind != Vrdt::Entry::Kind::kActive ||
      e->vrd.sn != sn) {
    return;
  }
  e->vrd.attr = std::move(up.attr);
  e->vrd.metasig = std::move(up.metasig);
  vrdt_.put_active(e->vrd);
}

void WormStore::lit_hold(const LitigationRequest& request) {
  litigate(request, /*hold=*/true);
}

void WormStore::lit_release(const LitigationRequest& request) {
  litigate(request, /*hold=*/false);
}

void WormStore::litigate(const LitigationRequest& request, bool hold) {
  common::MutexLock commit(commit_mu_);
  require_mutable();
  Bytes frame;
  {
    common::SharedLock lk(state_mu_);
    const std::optional<Vrdt::Entry> e = vrdt_.find(request.sn);
    WORM_REQUIRE(e.has_value() && e->kind == Vrdt::Entry::Kind::kActive,
                 hold ? "lit_hold: record not active"
                      : "lit_release: record not active");
    frame = hold ? ScpuChannel::encode_lit_hold(
                       e->vrd, request.hold_until, request.lit_id,
                       request.cred_issued_at, request.credential)
                 : ScpuChannel::encode_lit_release(e->vrd, request.lit_id,
                                                   request.cred_issued_at,
                                                   request.credential);
  }
  try {
    cross_sequenced(std::move(frame));
  } catch (const ScpuDeadError& dead) {
    enter_degraded(dead);
  }
}

// ---------------------------------------------------------------------------
// Interrupts + restart
// ---------------------------------------------------------------------------

void WormStore::on_expire(Sn sn, DeletionProof proof) {
  // Fired from the driver thread's clock dispatch (never re-entrantly from
  // inside a mailbox crossing), so taking the exclusive lock is safe.
  common::ExclusiveLock lk(state_mu_);
  // WAL first: the proof is delivered exactly once and must survive a crash
  // between this interrupt and the next checkpoint.
  journal_put_deleted(proof);
  const std::optional<Vrdt::Entry> e = vrdt_.find(sn);
  if (!e.has_value() || e->kind != Vrdt::Entry::Kind::kActive) {
    // Already gone (e.g. duplicate expiration after a lit-release); the
    // proof is still the authoritative record of deletion.
    vrdt_.put_deleted(proof);
    return;
  }
  // Shred the data per the record's own policy, then replace the VRDT entry
  // with the proof of rightful deletion (§4.2.2 "delete"). With dedup on,
  // shared records are only destroyed when their last reference expires.
  // The device has deleted the record whether or not a shred lands: a
  // failed one is owed, the proof still goes in, and the error then
  // reaches the caller.
  const storage::ShredPolicy policy = e->vrd.attr.shredding;
  std::exception_ptr failure;
  for (const auto& rd : e->vrd.rdl) {
    try {
      release_rd(rd, policy);
    } catch (const common::StorageError&) {
      owed_shreds_.push_back({rd, policy});
      if (failure == nullptr) failure = std::current_exception();
    }
  }
  vrdt_.put_deleted(proof);
  ++ops_.expirations;
  if (failure != nullptr) std::rethrow_exception(failure);
}

void WormStore::on_heartbeat(SignedSnCurrent current) {
  common::ExclusiveLock lk(state_mu_);
  heartbeat_ = std::move(current);
  // Mid-crossing, the heartbeat may count SNs whose VRDs are not applied
  // yet; next_sn() and read-your-writes need the mirror to stay at what the
  // host holds. The ack moves it once they are applied.
  if (!writes_in_flight_) {
    sn_current_mirror_ = std::max(sn_current_mirror_, heartbeat_.sn_current);
  }
}

void WormStore::derive_host_state_locked(std::vector<Expired> expired) {
  std::vector<storage::RecordDescriptor> named = named_records_locked();
  drop_named_blocks(expired, named);
  for (const Expired& x : expired) records_.shred(x.rd, x.policy, shred_rng());
  if (config_.dedup) {
    // Every naming is a reference; each record's payload is hashed once.
    content_index_.clear();
    rd_refs_.clear();
    for (const storage::RecordDescriptor& rd : named) {
      if (++rd_refs_[rd.record_id] > 1) continue;
      try {
        Bytes payload = records_.read(rd);
        charge_host(config_.host_model.hash_cost(payload.size()));
        content_index_[crypto::Sha256::hash_bytes(payload)] = rd;
      } catch (const common::StorageError&) {
        // Unreadable (damaged, or named past the device): nothing dedups
        // against it, and the reference still keeps it from being shredded.
      }
    }
  }
  records_.rebuild_allocator(named);
}

void WormStore::adopt_vrdt(Vrdt vrdt) {
  common::MutexLock commit(commit_mu_);
  common::ExclusiveLock lk(state_mu_);
  WORM_REQUIRE(ops_.writes == 0 && vrdt_.entry_count() == 0,
               "adopt_vrdt: store already in service");
  vrdt_ = std::move(vrdt);
  // The adopted snapshot becomes the journal's new baseline.
  checkpoint_locked();
  derive_host_state_locked();
}

// ---------------------------------------------------------------------------
// Crash recovery
// ---------------------------------------------------------------------------

WormStore::RecoveryReport WormStore::recover() {
  common::MutexLock commit(commit_mu_);
  WORM_REQUIRE(journal_.enabled(),
               "recover: store has no journal configured (journal_path)");

  RecoveryReport report;
  Replayed replayed;
  std::uint64_t journaled_seq = 0;  // highest intent replay left pending
  {
    common::ExclusiveLock lk(state_mu_);
    WORM_REQUIRE(ops_.writes == 0 && vrdt_.entry_count() == 0,
                 "recover: store already in service");
    // Until its answer lands, an intent replay leaves pending may hold SNs
    // the host has no entry for: reads of them answer unavailable, not
    // failure. Derive the rest of host state before anything allocates,
    // with the records those intents staged counted as live.
    replayed = replay_journal_locked(report);
    derive_host_state_locked(std::move(replayed.expired));
    if (!pending_seqs_.empty()) journaled_seq = pending_seqs_.rbegin()->first;
  }
  try {
    // Continue the crossing sequence past everything the device or the
    // journal has seen, then resend the pending intents.
    channel_.set_next_seq(std::max(channel_.status().last_seq, journaled_seq) +
                          1);
    bool resolved = true;
    try {
      resend_pending(&report);
    } catch (const ChannelTimeoutError&) {
      // The resend may still run: the checkpoint keeps its intent.
      ++report.unresolved;
      resolved = false;
    }
    reconcile_with_device();
    // Re-executing would first resend that intent again, outside this
    // report: the admissions stay journaled for the next recover().
    if (resolved) reexecute_queued(replayed.queued, report);
  } catch (const ScpuDeadError&) {
    // Dead device: serve read-only, with the pending intents on the books.
    degraded_ = true;
  }

  try {
    checkpoint();
  } catch (const common::StorageError& e) {
    // A read-only store comes up on the journal as replayed, as it would
    // have without a checkpoint.
    if (!degraded_) throw;
    WORM_WARN("store", "degraded store kept its replayed journal: ", e.what());
  }
  return report;
}

WormStore::Replayed WormStore::replay_journal_locked(RecoveryReport& report) {
  // Fold the journal into host soft state in append order, which is the
  // order the answers were applied in, leaving intents whose answer never
  // landed pending and collecting admissions no intent superseded.
  HostJournal::ReplayResult replay = journal_.replay();
  report.torn_tail = replay.torn_tail;
  report.torn_bytes = replay.torn_bytes;
  Replayed out;
  std::map<std::uint64_t, const JournalRecord*> admitted;  // qid -> record
  for (const JournalRecord& rec : replay.records) {
    common::ByteReader r(rec.payload);
    try {
      switch (rec.type) {
        case JournalRecordType::kCheckpoint:
          vrdt_ = Vrdt::deserialize(rec.payload);
          break;
        case JournalRecordType::kPutDeleted: {
          DeletionProof proof = DeletionProof::deserialize(r);
          r.expect_end();
          if (const std::optional<Vrdt::Entry> e = vrdt_.find(proof.sn);
              e.has_value() && e->kind == Vrdt::Entry::Kind::kActive) {
            for (const storage::RecordDescriptor& rd : e->vrd.rdl) {
              out.expired.push_back({rd, e->vrd.attr.shredding});
            }
          }
          vrdt_.put_deleted(proof);
          break;
        }
        case JournalRecordType::kTrimBelow: {
          Sn sn_base = r.u64();
          r.expect_end();
          vrdt_.trim_below(sn_base);
          sn_base_mirror_ = std::max(sn_base_mirror_, sn_base);
          break;
        }
        case JournalRecordType::kIntent: {
          // Atomic supersession: the frame becomes the pending intent
          // (resent verbatim through the dedup cache) and the admissions it
          // carries stop being re-executable — never both. Their qids are
          // never handed out again, even once a checkpoint has dropped the
          // admissions themselves.
          std::uint64_t seq = r.u64();
          Bytes frame = r.blob();
          std::uint32_t n = r.count(/*min_elem_bytes=*/8);
          std::vector<std::uint64_t> qids(n);
          for (std::uint64_t& qid : qids) {
            qid = r.u64();
            out.queued.erase(qid);
            if (qid > next_qid_) next_qid_ = qid;
          }
          r.expect_end();
          pending_seqs_[seq] = {std::move(frame), std::move(qids)};
          break;
        }
        case JournalRecordType::kComplete: {
          // The answer the live crossing applied, applied the same way.
          std::uint64_t seq = r.u64();
          const bool ok = r.boolean();
          Bytes answer = ok ? r.blob() : Bytes{};
          r.expect_end();
          auto intent = pending_seqs_.find(seq);
          if (intent == pending_seqs_.end()) {
            throw common::ParseError("kComplete answers no pending intent");
          }
          if (ok) {
            (void)apply_answer_locked(intent->second.frame, answer,
                                      &out.expired);
          }
          pending_seqs_.erase(intent);
          break;
        }
        case JournalRecordType::kQueuedWrite: {
          std::uint64_t qid = r.u64();
          WriteRequest req;
          req.attr = Attr::deserialize(r);
          if (r.boolean()) {
            std::uint8_t m = r.u8();
            if (m > static_cast<std::uint8_t>(WitnessMode::kHmac)) {
              throw common::ParseError("kQueuedWrite: bad witness mode");
            }
            req.mode = static_cast<WitnessMode>(m);
          }
          std::uint32_t n = r.count(/*min_elem_bytes=*/4);
          req.payloads.reserve(n);
          for (std::uint32_t k = 0; k < n; ++k) req.payloads.push_back(r.blob());
          r.expect_end();
          out.queued[qid] = std::move(req);
          admitted[qid] = &rec;
          if (qid > next_qid_) next_qid_ = qid;
          break;
        }
      }
    } catch (const common::Error&) {
      // Damaged (or adversarially edited) record: stop trusting the rest of
      // the journal. Unavailability at worst — never a forged verdict, since
      // everything served from here is still signature-checked by clients.
      report.torn_tail = true;
      break;
    }
    ++report.replayed;
  }
  // The admissions still owed stay in every checkpoint until an intent
  // supersedes them.
  for (const auto& [qid, request] : out.queued) {
    journal_.keep_admission(qid, *admitted.at(qid));
  }
  // Replayed answers restore state; they are not work this process did.
  ops_.writes = 0;
  ops_.compactions = 0;
  ops_.base_advances = 0;
  recovery_replayed_ += report.replayed;
  recovery_torn_bytes_ += report.torn_bytes;
  return out;
}

void WormStore::reconcile_with_device() {
  // Post-resend reconciliation with the device's signed view.
  ScpuStatus st = channel_.status();
  SignedSnCurrent heartbeat = channel_.heartbeat();
  common::ExclusiveLock lk(state_mu_);
  sn_current_mirror_ = st.sn_current;
  if (vrdt_.holds_below(st.sn_base)) {
    // The device advanced sn_base past proofs the host still holds — it
    // moved while we were down. Record the trim before applying it: a
    // crash between here and the end-of-recovery checkpoint rewrite must
    // not resurrect proofs the device already considers expired.
    journal_trim_below(st.sn_base);
    vrdt_.trim_below(st.sn_base);
  }
  // A replayed S_s(SN_base) for another base would answer a read below the
  // device's base that it does not cover, and the client would convict.
  if (base_.has_value() && base_->sn_base != st.sn_base) base_.reset();
  sn_base_mirror_ = st.sn_base;
  deferred_mirror_count_ = st.deferred_count;
  deferred_mirror_earliest_ = st.earliest_deadline;
  heartbeat_ = std::move(heartbeat);
}

void WormStore::reexecute_queued(
    const std::map<std::uint64_t, WriteRequest>& queued,
    RecoveryReport& report) {
  // Pipeline admissions no intent ever superseded were journaled before
  // their tickets could resolve, so they are owed to whoever was told
  // "queued". They cross now in qid (= admission order) through the write
  // committer, whose intents supersede them exactly like a live flush.
  std::vector<UnstagedWrite> writes;
  writes.reserve(queued.size());
  for (const auto& [qid, request] : queued) {
    writes.push_back({.request = &request, .qid = qid});
  }
  try {
    commit_writes(writes, [&report](std::size_t, Sn sn,
                                    const std::exception_ptr& rejected) {
      if (rejected) {
        ++report.abandoned;  // never ran, and its admission is consumed
        return;
      }
      report.recovered_sns.push_back(sn);
      ++report.queued_replayed;
    });
  } catch (const ChannelTimeoutError&) {
    // The intent is pending, and the admissions after it stay journaled:
    // the next recover() resends it through the dedup cache, then crosses
    // them.
    ++report.unresolved;
  }
}

// ---------------------------------------------------------------------------
// Journal checkpoints
// ---------------------------------------------------------------------------

void WormStore::checkpoint_locked() {
  // The VRDT streams straight into the temp file: a serialized copy of a
  // large table would cost its size in memory, twice once framed. One
  // intent record per pending intent follows it, so a crash cannot orphan
  // a possibly-executed command; the journal copies in the admissions owed.
  const Vrdt& vrdt = vrdt_;
  const std::map<std::uint64_t, PendingIntent>& pending = pending_seqs_;
  const std::size_t owed = owed_shreds_.size();
  journal_.checkpoint([&vrdt, &pending, owed](HostJournal::FrameSink& out) {
    // Replay redoes an owed shred from the records since the last
    // checkpoint, so none may fold them away. Thrown here, the journal
    // counts it with its other failed checkpoints.
    if (owed > 0) {
      throw common::StorageError("journal checkpoint waits for " +
                                 std::to_string(owed) + " owed shred(s)");
    }
    out.begin(JournalRecordType::kCheckpoint);
    vrdt.serialize_to([&out](ByteView piece) { out.write(piece); });
    out.end();
    for (const auto& [seq, intent] : pending) {
      out.frame(JournalRecordType::kIntent,
                intent_record(seq, intent.frame, intent.qids));
    }
  });
}

void WormStore::checkpoint() {
  {
    common::ExclusiveLock lk(state_mu_);
    retry_owed_shreds_locked();
  }
  common::SharedLock lk(state_mu_);
  checkpoint_locked();
}

void WormStore::maybe_checkpoint() {
  if (!journal_.checkpoint_due()) return;
  try {
    checkpoint();
  } catch (const common::StorageError& e) {
    // The journal goes on appending to the file it had.
    WORM_WARN("store", "journal checkpoint failed, retried when next due: ",
              e.what());
  }
}

void WormStore::retry_owed_shreds_locked() {
  // The owed blocks were never freed, so nothing else holds them; a
  // dedup-shared record dropped its last reference before its shred failed.
  std::erase_if(owed_shreds_, [this](const Expired& x) {
    try {
      records_.shred(x.rd, x.policy, shred_rng());
      return true;
    } catch (const common::StorageError&) {
      return false;
    }
  });
}

// ---------------------------------------------------------------------------
// Client-facing state
// ---------------------------------------------------------------------------

TrustAnchors WormStore::anchors() {
  common::MutexLock commit(commit_mu_);
  CertificateBundle bundle = channel_.get_certificates();
  TrustAnchors a;
  a.meta_key = crypto::RsaPublicKey::deserialize(bundle.meta_pub);
  a.deletion_key = crypto::RsaPublicKey::deserialize(bundle.deletion_pub);
  a.short_certs = std::move(bundle.short_certs);
  // Acceptance policies are deployment parameters, not secrets.
  a.sn_current_max_age = firmware_.config().sn_current_max_age;
  a.short_sig_acceptance = firmware_.config().short_sig_lifetime;
  return a;
}

MigrationAttestation WormStore::sign_migration(ByteView manifest_hash,
                                               std::uint64_t dest_store_id) {
  common::MutexLock commit(commit_mu_);
  require_mutable();
  try {
    return channel_.sign_migration(manifest_hash, config_.store_id,
                                             dest_store_id);
  } catch (const ScpuDeadError& e) {
    enter_degraded(e);
  }
}

SignedSnCurrent WormStore::refresh_heartbeat() {
  common::MutexLock commit(commit_mu_);
  if (degraded_) return latest_heartbeat();  // no keys left to stamp anew
  SignedSnCurrent fresh;
  try {
    fresh = channel_.heartbeat();
  } catch (const ScpuDeadError& e) {
    enter_degraded(e);
  }
  common::ExclusiveLock lk(state_mu_);
  heartbeat_ = fresh;
  return fresh;
}

void WormStore::adopt_epoch_cert_locked(const std::optional<EpochCert>& cert) {
  if (!cert.has_value()) return;
  if (!epoch_cert_.has_value() || cert->epoch > epoch_cert_->epoch) {
    epoch_cert_ = *cert;
  }
}

std::map<std::string_view, std::uint64_t> WormStore::counters() const {
  common::MutexLock commit(commit_mu_);
  common::SharedLock lk(state_mu_);
  const ScpuChannel::WireStats& wire = channel_.wire_stats();
  const WritePipeline::Stats wp =
      pipeline_ != nullptr ? pipeline_->stats() : WritePipeline::Stats{};
  const HostJournal::Stats journal = journal_.stats();
  return {
      {"store.writes", ops_.writes.load()},
      {"store.reads", ops_.reads.load()},
      {"store.read_many_batches", ops_.read_many_batches.load()},
      {"store.reads_unavailable", ops_.reads_unavailable.load()},
      {"store.expirations", ops_.expirations.load()},
      {"store.compactions", ops_.compactions.load()},
      {"store.base_advances", ops_.base_advances.load()},
      {"store.dedup_hits", ops_.dedup_hits.load()},
      {"store.deferred_shreds", ops_.deferred_shreds.load()},
      {"store.degraded", degraded_ ? 1 : 0},
      {"mailbox.crossings", wire.commands},
      {"mailbox.bytes_crossed", wire.bytes_crossed},
      {"mailbox.error_responses", wire.errors},
      {"mailbox.batches", mailbox_.batches},
      {"mailbox.batched_writes", mailbox_.batched_writes},
      {"mailbox.queue_hwm", mailbox_.queue_hwm},
      {"mailbox.duty_runs", mailbox_.duty_runs},
      {"mailbox.urgent_services", mailbox_.urgent_services},
      {"mailbox.retries", wire.retries},
      {"mailbox.dedup_hits", wire.dedup_hits},
      {"mailbox.transport_faults", wire.transport_faults},
      {"mailbox.timeouts", wire.timeouts},
      {"storage.read_retries", records_.read_retries()},
      {"fault.injected",
       config_.fault != nullptr ? config_.fault->injected_total() : 0},
      {"recovery.replayed", recovery_replayed_},
      {"recovery.resent", recovery_resent_},
      {"recovery.torn_bytes", recovery_torn_bytes_},
      {"recovery.orphan_blocks", recovery_orphan_blocks_},
      {"journal.appended_bytes", journal.appended_bytes},
      {"journal.checkpoints", journal.checkpoints},
      {"journal.checkpoint_failures", journal.checkpoint_failures},
      // The host's table: per-SN entries held, and the bytes of their
      // encodings (what a checkpoint streams, less the SN keys).
      {"vrdt.entries", vrdt_.entry_count()},
      {"vrdt.encoded_bytes", vrdt_.encoded_bytes()},
      // All zero with the pipeline off. batch_fill_avg is flushed writes per
      // group, rounded to nearest.
      {"write_pipeline.queued", wp.queued},
      {"write_pipeline.batches", wp.batches},
      {"write_pipeline.batch_fill_avg",
       wp.batches > 0 ? (wp.flushed_writes + wp.batches / 2) / wp.batches
                      : 0},
      {"write_pipeline.backpressure_stalls", wp.backpressure_stalls},
      {"write_pipeline.busy_rejected", wp.busy_rejected},
  };
}

// ---------------------------------------------------------------------------
// Deadline-aware scheduling + idle-period duties (under the commit lock; each
// takes the store lock only to gather what it needs and to apply answers)
// ---------------------------------------------------------------------------

void WormStore::note_deferred_witness(SimTime creation_time) {
  SimTime deadline = creation_time + short_sig_lifetime_;
  if (deferred_mirror_count_ == 0 || deadline < deferred_mirror_earliest_) {
    deferred_mirror_earliest_ = deadline;
  }
  ++deferred_mirror_count_;
}

void WormStore::sync_deferred_mirror() {
  ScpuStatus st = channel_.status();
  common::ExclusiveLock lk(state_mu_);
  deferred_mirror_count_ = st.deferred_count;
  deferred_mirror_earliest_ = st.earliest_deadline;
}

bool WormStore::deadline_pressure(common::Duration margin) const {
  common::SharedLock lk(state_mu_);
  if (deferred_mirror_count_ == 0) return false;
  if (deferred_mirror_earliest_ == SimTime::max()) return false;
  return clock_.now() + margin >= deferred_mirror_earliest_;
}

void WormStore::maybe_service_deadline() {
  // §4.3: strengthening that is about to go stale preempts foreground
  // traffic. The check is mirror-only (free); strengthening runs until
  // pressure clears or it runs dry.
  while (deadline_pressure(kStrengthenMargin) && do_strengthen_batch()) {
    common::ExclusiveLock lk(state_mu_);
    ++mailbox_.duty_runs;
    ++mailbox_.urgent_services;
  }
}

void WormStore::apply_strengthen_results(
    std::vector<StrengthenResult> results) {
  for (StrengthenResult& r : results) {
    std::optional<Vrdt::Entry> e = vrdt_.find(r.sn);
    if (!e.has_value() || e->kind != Vrdt::Entry::Kind::kActive ||
        e->vrd.sn != r.sn) {
      continue;  // as in apply_lit_update
    }
    e->vrd.metasig = std::move(r.metasig);
    e->vrd.datasig = std::move(r.datasig);
    vrdt_.put_active(e->vrd);
  }
}

bool WormStore::do_strengthen_batch() {
  std::vector<Sn> pending = channel_.deferred_pending(
      static_cast<std::uint32_t>(kIdleBatch));
  if (pending.empty()) {
    // Keep the mirror honest: records can leave the device-side queue
    // without host action (expiry before strengthening).
    bool stale;
    {
      common::SharedLock lk(state_mu_);
      stale = deferred_mirror_count_ != 0;
    }
    if (stale) sync_deferred_mirror();
    return false;
  }

  std::vector<Sn> audits = channel_.hash_audits_pending(UINT32_MAX);
  std::set<Sn> audit_set(audits.begin(), audits.end());
  std::vector<Vrd> vrds;
  std::vector<std::vector<Bytes>> payloads;
  {
    common::SharedLock lk(state_mu_);
    for (Sn sn : pending) {
      std::optional<Vrdt::Entry> e = vrdt_.find(sn);
      if (!e.has_value() || e->kind != Vrdt::Entry::Kind::kActive) continue;
      if (audit_set.count(sn) > 0) {
        payloads.push_back(read_payloads(e->vrd));
      } else {
        payloads.emplace_back();
      }
      vrds.push_back(std::move(e->vrd));
    }
  }
  if (!vrds.empty()) {
    cross_sequenced(ScpuChannel::encode_strengthen(vrds, payloads));
  }
  sync_deferred_mirror();
  return !vrds.empty();
}

bool WormStore::do_hash_audits() {
  std::vector<Sn> audits = channel_.hash_audits_pending(
      static_cast<std::uint32_t>(kIdleBatch));
  bool any = false;
  for (Sn sn : audits) {
    Bytes frame;
    {
      common::SharedLock lk(state_mu_);
      const std::optional<Vrdt::Entry> e = vrdt_.find(sn);
      if (!e.has_value() || e->kind != Vrdt::Entry::Kind::kActive) continue;
      frame = ScpuChannel::encode_audit_hash(sn, read_payloads(e->vrd));
    }
    cross_sequenced(std::move(frame));
    any = true;
  }
  return any;
}

WormStore::DeletionEvidence WormStore::deletion_evidence_locked(Sn lo,
                                                                Sn hi) const {
  DeletionEvidence out;
  Sn sn = lo;
  while (sn <= hi) {
    if (std::optional<Vrdt::Entry> e = vrdt_.find(sn);
        e.has_value() && e->kind == Vrdt::Entry::Kind::kDeleted) {
      out.proofs.push_back(std::move(e->proof));
      ++sn;
    } else if (const DeletedWindow* w = vrdt_.find_window(sn); w != nullptr) {
      out.windows.push_back(*w);
      sn = w->hi + 1;
    } else {
      break;
    }
  }
  out.end = sn;
  return out;
}

bool WormStore::do_compaction() {
  Bytes frame;
  {
    common::SharedLock lk(state_mu_);
    auto span = vrdt_.find_dead_span(config_.compaction_min_run);
    if (!span.has_value()) return false;
    DeletionEvidence ev = deletion_evidence_locked(span->lo, span->hi);
    WORM_CHECK(ev.end > span->hi, "compaction span has an evidence hole");
    frame = ScpuChannel::encode_certify_window(span->lo, span->hi, ev.proofs,
                                               ev.windows);
  }
  cross_sequenced(std::move(frame));
  return true;
}

bool WormStore::do_advance_base() {
  Bytes frame;
  {
    // Walk upward while every SN is proven deleted.
    common::SharedLock lk(state_mu_);
    DeletionEvidence ev =
        deletion_evidence_locked(sn_base_mirror_, sn_current_mirror_);
    if (ev.end == sn_base_mirror_) return false;
    frame = ScpuChannel::encode_advance_base(ev.end, ev.proofs, ev.windows);
  }
  cross_sequenced(std::move(frame));
  return true;
}

bool WormStore::do_vexp_rebuild() {
  if (!channel_.status().vexp_incomplete) return false;
  channel_.vexp_rebuild_begin();
  std::vector<Sn> active;
  {
    common::SharedLock lk(state_mu_);
    active = vrdt_.active_sns();
  }
  for (Sn sn : active) {
    Vrd vrd;
    {
      common::SharedLock lk(state_mu_);
      std::optional<Vrdt::Entry> e = vrdt_.find(sn);
      if (!e.has_value() || e->kind != Vrdt::Entry::Kind::kActive) continue;
      vrd = std::move(e->vrd);
    }
    channel_.vexp_rebuild_add(vrd);
  }
  channel_.vexp_rebuild_end();
  return true;
}

bool WormStore::pump_idle() {
  common::MutexLock commit(commit_mu_);
  if (degraded_) return false;  // nothing to pump into a dead device
  try {
    channel_.process_idle();
    std::uint64_t ran = 0;
    if (do_strengthen_batch()) ++ran;
    if (do_hash_audits()) ++ran;
    if (do_compaction()) ++ran;
    if (do_advance_base()) ++ran;
    if (do_vexp_rebuild()) ++ran;
    common::ExclusiveLock lk(state_mu_);
    mailbox_.duty_runs += ran;
    return ran > 0;
  } catch (const ScpuDeadError& e) {
    enter_degraded(e);
  }
}

}  // namespace worm::core
