/**
 * @file
 * The discrete-event simulation kernel.
 *
 * cnsim uses a transaction-level timing model: components update their
 * architectural state atomically at the moment a request is issued and
 * compose the request's completion time from resource-occupancy delays
 * (see mem/resource.hh). The event queue sequences the *initiators* --
 * the cores, each scheduling its next instruction -- in strict global
 * tick order, which is what gives different cores' requests a
 * deterministic interleaving.
 *
 * Engine design (see DESIGN.md section 3e): the paper's in-order cores
 * have one outstanding miss each, so every core has exactly one step
 * pending and the queue never holds more events than there are cores.
 * The pending events live in one vector sorted latest-first. schedule()
 * appends the new event and walks it toward the front past every event
 * at or before its tick; run() and step() pop the back. The new event
 * has the highest sequence number, so walking past equal ticks keeps
 * the global (tick, seq) FIFO tie-order that every golden output
 * depends on. Each event stores its callable inline (no std::function,
 * no per-event heap allocation).
 */

#ifndef CNSIM_SIM_EVENT_QUEUE_HH
#define CNSIM_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
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
    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule callable @p f to run at tick @p when.
     * Events at equal ticks run in scheduling order (FIFO), which keeps
     * runs deterministic. The callable is stored inline in the event;
     * one that is not trivially copyable, or larger than the inline
     * budget, does not compile.
     *
     * @return the event's sequence number, which defines its FIFO rank
     * among same-tick events (checkpoints persist it so a restored
     * queue replays ties in the original order).
     */
    template <typename F>
    std::uint64_t
    schedule(Tick when, F &&f)
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_v<Fn &, Tick>,
                      "event callable must accept a Tick");
        static_assert(!IsStdFunction<Fn>::value,
                      "a std::function scheduled on the EventQueue "
                      "type-erases the callable and may allocate per "
                      "event; schedule the lambda itself so it lands in "
                      "the event's inline storage");
        static_assert(std::is_trivially_copyable_v<Fn>,
                      "event callable must be trivially copyable: the "
                      "EventQueue moves events as plain bytes and never "
                      "destroys them; capture pointers or references, "
                      "not owning objects");
        static_assert(sizeof(Fn) <= inline_bytes &&
                          alignof(Fn) <= alignof(std::max_align_t),
                      "event callable exceeds the EventQueue inline "
                      "budget; shrink the capture: capture pointers or "
                      "references, not copies of large objects");
        cnsim_assert(when >= cur_tick,
                     "scheduling into the past: %llu < %llu",
                     static_cast<unsigned long long>(when),
                     static_cast<unsigned long long>(cur_tick));
        std::size_t i = events.size();
        events.emplace_back();
        Event *v = events.data();
        while (i > 0 && v[i - 1].when <= when) {
            v[i] = v[i - 1];
            --i;
        }
        v[i].when = when;
        v[i].invoke = &invokeInline<Fn>;
        ::new (static_cast<void *>(v[i].storage)) Fn(std::forward<F>(f));
        return next_seq++;
    }

    /**
     * Run events until the queue is empty or the next event's tick
     * would exceed @p until.
     *
     * @return the tick of the last event executed.
     */
    Tick
    run(Tick until = max_tick)
    {
        while (!events.empty() && events.back().when <= until)
            fire();
        return cur_tick;
    }

    /** Execute at most one pending event. @return false if none left. */
    bool
    step()
    {
        if (events.empty())
            return false;
        fire();
        return true;
    }

    /** @return the current simulated time. */
    [[nodiscard]] Tick now() const { return cur_tick; }

    /** @return number of pending events. */
    [[nodiscard]] std::size_t pending() const { return events.size(); }

    /** @return total events executed since construction. */
    [[nodiscard]] std::uint64_t executed() const { return n_executed; }

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
        n_executed = executed;
    }

  private:
    /** Inline storage for the scheduled callable: two pointers, which
     *  is what a core's step lambda captures. */
    static constexpr std::size_t inline_bytes = 16;

    struct Event
    {
        Tick when;
        void (*invoke)(Event &, Tick);
        alignas(std::max_align_t) unsigned char storage[inline_bytes];
    };

    template <typename Fn>
    static void
    invokeInline(Event &e, Tick t)
    {
        (*std::launder(reinterpret_cast<Fn *>(e.storage)))(t);
    }

    /** Pop and execute the earliest event. It is copied out first: its
     *  callable may schedule, which may reallocate the vector. */
    void
    fire()
    {
        Event e = events.back();
        events.pop_back();
        cur_tick = e.when;
        ++n_executed;
        e.invoke(e, cur_tick);
    }

    /** Pending events, latest first: the back is the next to run. */
    std::vector<Event> events;

    Tick cur_tick = 0;
    std::uint64_t next_seq = 0;
    std::uint64_t n_executed = 0;
};

} // namespace cnsim

#endif // CNSIM_SIM_EVENT_QUEUE_HH
