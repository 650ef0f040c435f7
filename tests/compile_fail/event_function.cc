// Compile-fail fixture: a type-erased std::function on the event queue
// defeats the event's inline storage.

#include <functional>

#include "sim/event_queue.hh"

void
scheduleErased(cnsim::EventQueue &eq, unsigned *counter)
{
    std::function<void(cnsim::Tick)> saved = [counter](cnsim::Tick) {
        ++*counter;
    };
    eq.schedule(200, saved);
}
