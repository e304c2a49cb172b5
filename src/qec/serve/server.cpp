#include "qec/serve/server.hpp"

#include <algorithm>
#include <chrono>

#include "qec/fault/fault_injector.hpp"
#include "qec/util/assert.hpp"
#include "qec/util/backoff.hpp"
#include "qec/util/realtime.hpp"
#include "qec/util/rng.hpp"

namespace qec
{

// Cache-line aligned: each worker writes its own counters and
// health atomics on every request, so its object must not share a
// line with the next worker's, whatever the object's size.
struct alignas(64) DecodeServer::Worker
{
    Worker(const Decoder &prototype, int detectorsPerRound,
           const StreamingConfig &streaming, int index)
        : index(index), engine(prototype.clone()),
          streamer(*engine, detectorsPerRound, streaming)
    {
    }

    int index;
    std::unique_ptr<Decoder> engine;
    StreamingDecoder streamer;
    /** Copy-on-corrupt scratch (fault injection only). */
    SyndromeStream corruptScratch;
    // Plain counters: written by the owning worker thread only,
    // merged by stats() in a quiescent state.
    uint64_t failed = 0;
    uint64_t aborted = 0;
    uint64_t handlerExceptions = 0;
    Histogram latency;
    Histogram service;
    // Health fields, read concurrently by health().
    std::atomic<uint64_t> lastProgressNs{0};
    std::atomic<uint64_t> busySinceNs{0};
    std::atomic<uint64_t> finishedApprox{0};
};

DecodeServer::DecodeServer(const Decoder &prototype,
                           int detectorsPerRound, ServeConfig config,
                           ResponseHandler handler)
    : config_(config), handler_(std::move(handler)),
      time_(config.time ? config.time : &steadyTimeSource()),
      faults_(config.faults),
      numDetectors_(prototype.graph().numDetectors()),
      freeRing_(static_cast<size_t>(config.queueCapacity)),
      ingestRing_(static_cast<size_t>(config.queueCapacity))
{
    QEC_ASSERT(config.workers >= 1,
               "server needs at least one worker");
    QEC_ASSERT(config.queueCapacity >= 1,
               "server needs at least one request slot");

    // One slot per ring cell: a submitter that wins a free slot is
    // guaranteed a cell in the ingest ring, so an admitted request
    // can never be dropped.
    slots_.resize(freeRing_.capacity());
    for (uint32_t i = 0;
         i < static_cast<uint32_t>(slots_.size()); ++i) {
        const bool pushed = freeRing_.tryPush(i);
        QEC_ASSERT(pushed, "free ring must hold every slot");
    }

    workers_.reserve(config.workers);
    threads_.reserve(config.workers);
    for (int w = 0; w < config.workers; ++w) {
        workers_.push_back(std::make_unique<Worker>(
            prototype, detectorsPerRound, config.streaming, w));
    }
    for (int w = 0; w < config.workers; ++w) {
        threads_.emplace_back(
            [this, w] { workerLoop(*workers_[w]); });
    }
}

DecodeServer::~DecodeServer() { stop(); }

bool
DecodeServer::submit(const SyndromeStream &stream, uint64_t tag,
                     uint64_t deadlineNs)
{
    // Admission/shutdown linearization (Dekker store-load): raise
    // the pending count, then check the stopping flag — stop() does
    // the mirror image (raise stopping, then wait for pending == 0).
    // Under the seq_cst total order every submit either sees
    // stopping (and rejects) or its increment is visible to stop()'s
    // wait, which then outlasts the push below. Either way a racing
    // submit is rejected or fully served — never stranded.
    pendingSubmits_.fetch_add(1, std::memory_order_seq_cst);
    if (stopping_.load(std::memory_order_seq_cst)) {
        pendingSubmits_.fetch_sub(1, std::memory_order_release);
        rejected_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    uint32_t slot;
    if ((faults_ && faults_->injectReject()) ||
        !freeRing_.tryPop(slot)) {
        pendingSubmits_.fetch_sub(1, std::memory_order_release);
        rejected_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    Slot &s = slots_[slot];
    s.stream = &stream;
    s.tag = tag;
    s.submitNs = time().nowNs();
    s.deadlineNs = deadlineNs;
    accepted_.fetch_add(1, std::memory_order_relaxed);
    // Slots and ring cells are in one-to-one supply and we hold a
    // slot that is in neither ring, so there is always logical room
    // — but a Vyukov tryPush can still fail transiently while a
    // consumer that claimed the target cell has not yet published
    // its sequence. Spin it out: the wait is bounded by that one
    // consumer's in-progress pop, not by queue drain (found by the
    // chaos suite under TSan at small ring capacities).
    SpinBackoff backoff;
    while (!ingestRing_.tryPush(slot)) {
        backoff.pause();
    }
    pendingSubmits_.fetch_sub(1, std::memory_order_release);
    return true;
}

SubmitResult
DecodeServer::submitWithRetry(const SyndromeStream &stream,
                              uint64_t tag, uint64_t deadlineNs,
                              const RetryPolicy &policy)
{
    QEC_ASSERT(policy.maxAttempts >= 1,
               "retry policy needs at least one attempt");
    SubmitResult out;
    uint64_t backoffNs = policy.initialBackoffNs;
    for (int attempt = 0; attempt < policy.maxAttempts; ++attempt) {
        if (submit(stream, tag, deadlineNs)) {
            out.accepted = true;
            out.retries = attempt;
            return out;
        }
        if (attempt + 1 == policy.maxAttempts) {
            break;
        }
        // Deterministic jitter in [backoff/2, backoff]: a pure
        // function of (jitterSeed, tag, attempt), so identical runs
        // wait identically and concurrent retriers decorrelate.
        Rng rng = Rng::forSample(policy.jitterSeed, tag,
                                 static_cast<uint64_t>(attempt));
        const uint64_t waitNs =
            backoffNs / 2 + rng.nextBelow(backoffNs / 2 + 1);
        time().sleepNs(waitNs);
        backoffNs = std::min(
            policy.maxBackoffNs,
            static_cast<uint64_t>(static_cast<double>(backoffNs) *
                                  policy.multiplier));
    }
    out.retries = policy.maxAttempts - 1;
    return out;
}

void
DecodeServer::drain()
{
    SpinBackoff backoff;
    while (completed_.load(std::memory_order_acquire) +
               expired_.load(std::memory_order_acquire) <
           accepted_.load(std::memory_order_acquire)) {
        backoff.pause();
    }
}

void
DecodeServer::stop()
{
    if (stopped_) {
        return;
    }
    stopping_.store(true, std::memory_order_seq_cst);
    // Wait out every submit() that got past the stopping check:
    // after this loop the accepted count is final (see submit()).
    SpinBackoff backoff;
    while (pendingSubmits_.load(std::memory_order_seq_cst) != 0) {
        backoff.pause();
    }
    drain();
    // Only now may workers exit on an empty ring: everything
    // admitted has been served, and nothing can be admitted again.
    exit_.store(true, std::memory_order_release);
    for (std::thread &t : threads_) {
        t.join();
    }
    threads_.clear();
    stopped_ = true;
}

void
DecodeServer::workerLoop(Worker &w)
{
    QEC_REALTIME;
    SpinBackoff backoff;
    for (;;) {
        uint32_t slot;
        if (ingestRing_.tryPop(slot)) {
            backoff.reset();
            Slot &s = slots_[slot];
            const SyndromeStream *stream = s.stream;
            const uint64_t tag = s.tag;
            const uint64_t submitNs = s.submitNs;
            const uint64_t deadlineNs = s.deadlineNs;

            uint64_t t0 = time().nowNs();
            w.busySinceNs.store(t0, std::memory_order_release);
            w.lastProgressNs.store(t0, std::memory_order_relaxed);

            if (faults_) {
                // Wedge gate: parks holding the request so
                // health()'s oldestInFlightAgeNs grows (the
                // watchdog tests key off that).
                while (faults_->wedged(w.index)) {
                    idleNap(20);
                }
                uint64_t stallNs = 0;
                if (faults_->injectStall(&stallNs)) {
                    time().sleepNs(stallNs);
                }
                t0 = time().nowNs();
            }

            DecodeResponse response;
            response.tag = tag;
            const bool expired =
                deadlineNs != 0 && t0 > submitNs + deadlineNs;
            if (expired) {
                response.status = DecodeStatus::kDeadlineExpired;
            } else {
                if (faults_) {
                    stream = faults_->maybeCorrupt(
                        *stream, w.corruptScratch, numDetectors_);
                }
                const StreamDecodeOutcome decoded =
                    w.streamer.runChecked(*stream);
                response.correctedObs = decoded.committedObs;
                response.status = decoded.status;
                response.aborted = decoded.aborted;
            }
            const uint64_t t1 = time().nowNs();

            // Recycle before the handler: the slot's contents are
            // already copied out, and a waiting submitter can reuse
            // it while the handler runs. As in submit(), the push
            // has guaranteed logical room but can fail transiently
            // under a concurrent in-progress pop — spin it out.
            SpinBackoff recycleBackoff;
            while (!freeRing_.tryPush(slot)) {
                recycleBackoff.pause();
            }

            response.latencyNs =
                static_cast<double>(t1 - submitNs);
            response.serviceNs = static_cast<double>(t1 - t0);

            if (!expired) {
                if (response.status != DecodeStatus::kOk) {
                    ++w.failed;
                }
                if (response.aborted) {
                    ++w.aborted;
                }
                w.latency.add(response.latencyNs);
                w.service.add(response.serviceNs);
            }
            if (handler_) {
                try {
                    handler_(response);
                } catch (...) {
                    // Contained: the response already fired once;
                    // re-firing or unwinding the worker would break
                    // the exactly-once and drain guarantees.
                    ++w.handlerExceptions;
                }
            }
            w.busySinceNs.store(0, std::memory_order_release);
            w.lastProgressNs.store(t1, std::memory_order_relaxed);
            w.finishedApprox.fetch_add(1,
                                       std::memory_order_relaxed);
            // Release-publish after the handler so drain() waiters
            // observe the handler's writes.
            if (expired) {
                expired_.fetch_add(1, std::memory_order_release);
            } else {
                completed_.fetch_add(1, std::memory_order_release);
            }
        } else if (exit_.load(std::memory_order_acquire)) {
            // exit_ rises only after stop() saw admission quiesced
            // and every accepted request served, so an empty ring
            // here is final.
            return;
        } else {
            w.lastProgressNs.store(time().nowNs(),
                                   std::memory_order_relaxed);
            backoff.pause();
        }
    }
}

HealthSnapshot
DecodeServer::health() const
{
    HealthSnapshot out;
    out.nowNs = time_->nowNs();
    out.queueDepth = ingestRing_.sizeApprox();
    out.freeSlots = freeRing_.sizeApprox();
    out.workers.reserve(workers_.size());
    for (const auto &w : workers_) {
        WorkerHealth h;
        h.lastProgressNs =
            w->lastProgressNs.load(std::memory_order_acquire);
        h.busySinceNs =
            w->busySinceNs.load(std::memory_order_acquire);
        h.completed =
            w->finishedApprox.load(std::memory_order_relaxed);
        if (h.busySinceNs != 0 && out.nowNs > h.busySinceNs) {
            out.oldestInFlightAgeNs =
                std::max(out.oldestInFlightAgeNs,
                         out.nowNs - h.busySinceNs);
        }
        out.workers.push_back(h);
    }
    return out;
}

ServeStats
DecodeServer::stats() const
{
    ServeStats out;
    out.accepted = accepted_.load(std::memory_order_acquire);
    out.rejected = rejected_.load(std::memory_order_acquire);
    out.completed = completed_.load(std::memory_order_acquire);
    out.expired = expired_.load(std::memory_order_acquire);
    for (const auto &w : workers_) {
        out.failed += w->failed;
        out.aborted += w->aborted;
        out.handlerExceptions += w->handlerExceptions;
        out.latency.merge(w->latency);
        out.service.merge(w->service);
    }
    return out;
}

void
DecodeServer::resetStats()
{
    accepted_.store(0, std::memory_order_relaxed);
    rejected_.store(0, std::memory_order_relaxed);
    completed_.store(0, std::memory_order_relaxed);
    expired_.store(0, std::memory_order_relaxed);
    for (auto &w : workers_) {
        w->failed = 0;
        w->aborted = 0;
        w->handlerExceptions = 0;
        w->latency.clear();
        w->service.clear();
        w->finishedApprox.store(0, std::memory_order_relaxed);
    }
}

} // namespace qec
