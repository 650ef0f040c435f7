/**
 * @file
 * The discrete-event simulation kernel.
 *
 * cnsim uses a transaction-level timing model: components update their
 * architectural state atomically at the moment a request is issued and
 * compose the request's completion time from resource-occupancy delays
 * (see mem/resource.hh). The event queue sequences the *initiators* --
 * cores scheduling their next instruction, background writebacks, and
 * any deferred actions -- in strict global tick order, which is what
 * gives different cores' requests a deterministic interleaving.
 *
 * Engine design (see DESIGN.md section 3e): events are fixed-size,
 * arena-allocated records with a small inline buffer for the callable
 * (no std::function, no per-event heap allocation on the hot path) and
 * are sequenced by a two-level calendar queue -- a power-of-two wheel
 * of per-tick FIFO buckets for the near window plus a (when, seq)
 * min-heap for far-future events. Appending to a bucket tail and
 * draining the overflow heap in (when, seq) order preserve the global
 * (tick, seq) FIFO tie-order exactly, so every figure and ablation
 * output is byte-identical to the original binary-heap engine.
 */

#ifndef CNSIM_SIM_EVENT_QUEUE_HH
#define CNSIM_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace cnsim
{

template <typename T>
struct IsStdFunction : std::false_type
{
};

template <typename Sig>
struct IsStdFunction<std::function<Sig>> : std::true_type
{
};

/** A global, deterministic discrete-event queue. */
class EventQueue
{
  public:
    EventQueue();
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule callable @p f to run at tick @p when.
     * Events at equal ticks run in scheduling order (FIFO), which keeps
     * runs deterministic regardless of queue internals. The callable is
     * stored inline in the event record; one larger than the inline
     * budget does not compile.
     *
     * @return the event's sequence number, which defines its FIFO rank
     * among same-tick events (checkpoints persist it so a restored
     * queue replays ties in the original order).
     */
    template <typename F>
    std::uint64_t
    schedule(Tick when, F &&f)
    {
        cnsim_assert(when >= cur_tick,
                     "scheduling into the past: %llu < %llu",
                     static_cast<unsigned long long>(when),
                     static_cast<unsigned long long>(cur_tick));
        Event *e = allocEvent();
        e->when = when;
        e->seq = next_seq++;
        e->next = nullptr;
        emplaceCallable(e, std::forward<F>(f));
        insert(e);
        return e->seq;
    }

    /**
     * Run events until the queue is empty or the next event's tick
     * would exceed @p until.
     *
     * @return the tick of the last event executed.
     */
    Tick run(Tick until = max_tick);

    /** Execute at most one pending event. @return false if none left. */
    bool step();

    /** @return the current simulated time. */
    [[nodiscard]] Tick now() const { return cur_tick; }

    /** @return number of pending events. */
    [[nodiscard]] std::size_t pending() const
    {
        return near_count + far.size();
    }

    /** @return total events executed since construction. */
    [[nodiscard]] std::uint64_t executed() const { return n_executed; }

    /** Request that run() stop after the current event completes. */
    void stop() { stop_requested = true; }

    /**
     * Reposition an *empty* queue at a checkpointed instant: the clock
     * moves to @p at and the executed-event count to @p executed, as if
     * that many events had already run. The caller then re-schedules
     * the checkpoint's pending events (in their saved seq-rank order,
     * so FIFO ties replay identically) before resuming run().
     */
    void
    resumeAt(Tick at, std::uint64_t executed)
    {
        cnsim_assert(pending() == 0,
                     "resumeAt on a queue with %zu pending events",
                     pending());
        cur_tick = at;
        wheel_base = at;
        scan_tick = at;
        n_executed = executed;
    }

    /**
     * @return total event records owned by the arena (free + in use).
     * Exposed so tests can assert the arena is reused, not regrown,
     * across repeated schedule/run cycles.
     */
    [[nodiscard]] std::size_t arenaCapacity() const
    {
        return chunks.size() * chunk_events;
    }

  private:
    /** Inline storage for the scheduled callable, sized for the lambdas
     *  the simulator actually schedules (core step captures fit). */
    static constexpr std::size_t inline_bytes = 48;

    /** Wheel width in ticks; power of two. 4096 comfortably covers the
     *  longest single-request completion delay, so in steady state
     *  every event lands in the near window. */
    static constexpr std::size_t num_buckets = 4096;
    static constexpr Tick bucket_mask = num_buckets - 1;

    /** Events per arena chunk. */
    static constexpr std::size_t chunk_events = 1024;

    struct Event
    {
        Tick when;
        std::uint64_t seq;
        Event *next; //!< bucket FIFO / freelist link
        void (*invoke)(Event *, Tick);
        void (*destroy)(Event *); //!< null for trivially destructible
        alignas(std::max_align_t) unsigned char storage[inline_bytes];
    };

    /** Per-tick FIFO of same-tick events in schedule (seq) order. */
    struct Bucket
    {
        Event *head = nullptr;
        Event *tail = nullptr;
    };

    template <typename Fn>
    static void
    invokeInline(Event *e, Tick t)
    {
        (*std::launder(reinterpret_cast<Fn *>(e->storage)))(t);
    }

    template <typename Fn>
    static void
    destroyInline(Event *e)
    {
        std::launder(reinterpret_cast<Fn *>(e->storage))->~Fn();
    }

    template <typename F>
    static void
    emplaceCallable(Event *e, F &&f)
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_v<Fn &, Tick>,
                      "event callable must accept a Tick");
        static_assert(!IsStdFunction<Fn>::value,
                      "a std::function scheduled on the EventQueue "
                      "type-erases the callable and may allocate per "
                      "event; schedule the lambda itself so it lands in "
                      "the event's inline storage");
        static_assert(sizeof(Fn) <= inline_bytes &&
                          alignof(Fn) <= alignof(std::max_align_t),
                      "event callable exceeds the EventQueue inline "
                      "budget; shrink the capture: capture pointers or "
                      "references, not copies of large objects");
        ::new (static_cast<void *>(e->storage)) Fn(std::forward<F>(f));
        e->invoke = &invokeInline<Fn>;
        e->destroy = std::is_trivially_destructible_v<Fn>
                         ? nullptr
                         : &destroyInline<Fn>;
    }

    /** Heap order for the far-future overflow: min (when, seq) on top. */
    struct FarGreater
    {
        bool
        operator()(const Event *a, const Event *b) const
        {
            return a->when != b->when ? a->when > b->when : a->seq > b->seq;
        }
    };

    Event *allocEvent();
    void releaseEvent(Event *e);
    void insert(Event *e);
    /** Pour every near-window event back into the overflow heap (used
     *  when a schedule targets a tick below the repositioned window). */
    void spillNearToFar();

    /**
     * Detach and return the next event in (when, seq) order whose tick
     * is <= @p until, or null. Advances the bucket scan; does not touch
     * cur_tick.
     */
    Event *popNext(Tick until);

    /**
     * Reposition the (empty) near window at the earliest far-future
     * event and migrate everything inside the new window into buckets.
     * @return false if there are no events at all.
     */
    bool migrateFar();

    void destroyPending();

    std::vector<Bucket> buckets{num_buckets};
    /** One bit per bucket: set iff the bucket is non-empty. popNext
     *  finds the next pending tick with a cyclic find-first-set scan
     *  instead of probing empty buckets one tick at a time. */
    std::vector<std::uint64_t> occupied =
        std::vector<std::uint64_t>(num_buckets / 64, 0);
    /** Far-future overflow, binary-heap ordered by FarGreater. */
    std::vector<Event *> far;
    /** First tick of the near window [wheel_base, wheel_base+W). */
    Tick wheel_base = 0;
    /** Next tick the bucket scan will look at; no pending near event
     *  is earlier than this. */
    Tick scan_tick = 0;
    std::size_t near_count = 0;

    std::vector<std::unique_ptr<Event[]>> chunks;
    Event *free_list = nullptr;

    Tick cur_tick = 0;
    std::uint64_t next_seq = 0;
    std::uint64_t n_executed = 0;
    bool stop_requested = false;
};

} // namespace cnsim

#endif // CNSIM_SIM_EVENT_QUEUE_HH
