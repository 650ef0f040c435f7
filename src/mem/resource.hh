/**
 * @file
 * Timed hardware resources with explicit occupancy.
 *
 * A Resource models a structure with @p ports identical servers (a
 * single-ported SRAM array, a 4-port shared cache, a memory channel
 * group). A request acquires the earliest-free server at or after its
 * arrival tick and holds it for its occupancy; the returned grant time
 * composes into the request's latency. This captures queueing delay
 * under contention without per-cycle simulation.
 *
 * The paper's bandwidth assumptions map directly onto Resources:
 * single-ported, unpipelined private tag arrays and data d-groups; a
 * 4-port uniform-shared cache; a pipelined split-transaction bus whose
 * address phase is the serializing stage.
 */

#ifndef CNSIM_MEM_RESOURCE_HH
#define CNSIM_MEM_RESOURCE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace cnsim
{

namespace obs
{
class TraceSink;
} // namespace obs

class ByteReader;
class ByteWriter;

/** A contended hardware structure with one or more identical ports. */
class Resource
{
  public:
    /**
     * @param name Debug/stat name.
     * @param ports Number of identical servers.
     */
    explicit Resource(std::string name, unsigned ports = 1);

    /**
     * Acquire the earliest-available port at or after @p at and hold it
     * for @p occupancy ticks.
     *
     * @return the grant tick (>= at); the request's access may begin
     *         then, and the port frees at grant + occupancy.
     */
    [[nodiscard]] Tick acquire(Tick at, Tick occupancy);

    /** Peek at the earliest grant time without acquiring. */
    [[nodiscard]] Tick earliestGrant(Tick at) const;

    /** Register this resource's stats into @p group. */
    void regStats(StatGroup &group);

    /** Forget all occupancy (new measurement phase). */
    void reset();

    /**
     * Emit a Resource trace event per grant into @p s under the track
     * @p path (defaults to "res.<name>").
     */
    void attachSink(obs::TraceSink *s, const std::string &path = "");

    [[nodiscard]] const std::string &name() const { return _name; }

    /** Serialize port occupancy (free_at) into a checkpoint. */
    void saveState(ByteWriter &w) const;

    /** Restore port occupancy from a checkpoint. */
    void loadState(ByteReader &r);

  private:
    std::string _name;
    std::vector<Tick> free_at;
    Counter n_grants;
    Counter wait_ticks;
    Counter busy_ticks;
    obs::TraceSink *sink = nullptr;
    int track = -1;
};

} // namespace cnsim

#endif // CNSIM_MEM_RESOURCE_HH
