// Compile-fail fixture: a callable that owns a resource fits the inline
// budget, but the event queue copies events as plain bytes and never
// destroys them, so the count would never drop and the payload leaks.

#include <memory>

#include "sim/event_queue.hh"

void
scheduleOwning(cnsim::EventQueue &eq, std::shared_ptr<unsigned> counter)
{
    eq.schedule(200, [counter](cnsim::Tick) { ++*counter; });
}
