#include "mem/directory.hh"

#include <algorithm>

#include "common/bytes.hh"
#include "common/logging.hh"
#include "obs/trace_sink.hh"

namespace cnsim
{

DirectoryInterconnect::DirectoryInterconnect(InterconnectKind kind,
                                            int cores,
                                            unsigned block_size,
                                            CohMode mode,
                                            const NocParams &p)
    : coh_mode(mode), blk_shift(floorLog2(block_size)),
      net(kind, cores, p)
{
    cnsim_assert(cores >= 1 && cores <= 64,
                 "directory sharer bitset holds at most 64 cores, got %d",
                 cores);
    cnsim_assert(isPowerOf2(block_size),
                 "directory block size %u not a power of two", block_size);
}

int
DirectoryInterconnect::homeOf(Addr addr) const
{
    return static_cast<int>((addr >> blk_shift) %
                            static_cast<Addr>(net.nodes()));
}

std::uint64_t
DirectoryInterconnect::sharersOf(Addr addr) const
{
    const DirEntry *e = dir.find(blockAlign(addr, 1u << blk_shift));
    return e ? e->sharers : 0;
}

CoreId
DirectoryInterconnect::ownerOf(Addr addr) const
{
    const DirEntry *e = dir.find(blockAlign(addr, 1u << blk_shift));
    return e ? e->owner : invalid_id;
}

bool
DirectoryInterconnect::dirtyOf(Addr addr) const
{
    const DirEntry *e = dir.find(blockAlign(addr, 1u << blk_shift));
    return e && e->dirty;
}

Tick
DirectoryInterconnect::latency() const
{
    // Representative request + reply across half the fabric's
    // diameter, plus the home lookup; used by energy/latency models,
    // never on the timed path.
    Tick hop = net.params().hop_latency + net.params().router_delay;
    return net.params().dir_latency +
           static_cast<Tick>(net.width() + net.height()) * hop;
}

Tick
DirectoryInterconnect::fanOut(std::uint64_t mask, CoreId skip, int home,
                              Tick at, bool acks)
{
    if (skip != invalid_id)
        mask &= ~(std::uint64_t{1} << skip);
    Tick done = at;
    forEachCore(mask & coreMask(net.nodes()), [&](CoreId c) {
        Tick arrive = net.send(home, c, at);
        if (acks)
            done = std::max(done, net.send(c, home, arrive));
        else
            done = std::max(done, arrive);
    });
    return acks ? done : at;
}

void
DirectoryInterconnect::relinquish(DirEntry &e, CoreId src, Addr baddr,
                                  bool wrote_back)
{
    e.sharers &= ~(1ull << src);
    if (e.owner == src)
        e.owner = invalid_id;
    // A clean departure (DirPut) says nothing about the surviving
    // copies -- under MESIC they are collectively newer than memory,
    // and in update mode the owner still holds dirty data. Only a
    // writeback makes memory current again.
    if (wrote_back)
        e.dirty = false;
    if (e.sharers == 0 && e.owner == invalid_id)
        dir.erase(baddr);
}

Tick
DirectoryInterconnect::request(BusCmd cmd, CoreId src, Addr addr, Tick at)
{
    counts[static_cast<int>(cmd)].inc();

    Addr baddr = blockAlign(addr, 1u << blk_shift);
    int home = homeOf(baddr);
    int src_node = src != invalid_id ? src % net.nodes() : home;

    // Request leg plus the home lookup.
    Tick t = net.send(src_node, home, at) + net.params().dir_latency;

    DirEntry *found = dir.find(baddr);
    DirEntry snap = found ? *found : DirEntry{};
    bool anonymous = src == invalid_id;

    switch (cmd) {
      case BusCmd::BusRd: {
        if (snap.owner != invalid_id && snap.owner != src) {
            // Forward through the owner, which supplies the data. An
            // exclusive grantee may have silently upgraded E->M, so
            // any owned line is forwarded, not just known-dirty ones.
            Tick fwd = net.send(home, snap.owner, t);
            t = net.send(snap.owner, src_node, fwd);
        } else {
            t = net.send(home, src_node, t);
        }
        if (!anonymous) {
            DirEntry &e = dir[baddr];
            e.sharers |= 1ull << src;
            if (snap.sharers == 0) {
                // Exclusive grant: the sole reader may later upgrade
                // E->M without another transaction, so the home keeps
                // it as the owner to forward future requests through.
                e.owner = src;
            } else if (coh_mode == CohMode::Mesi) {
                // Illinois MESI flushes on a snooped read and every
                // copy continues clean. Under MESIC the C copies stay
                // dirty, and under write-update the owner keeps
                // supplying dirty data without updating memory.
                e.dirty = false;
                e.owner = invalid_id;
            }
        }
        break;
      }

      case BusCmd::BusRdX:
      case BusCmd::BusUpg:
      case BusCmd::BusUpd: {
        // A write reaching the fabric multicasts to the live sharers
        // -- data updates under MESIC-C/write-update, invalidations
        // under MESI -- with the same traffic either way. The home
        // cannot tell which (the protocol decision lives in the org's
        // global view, and a silent E->M upgrade is invisible here),
        // so it conservatively records the writer as a dirty member;
        // when the org invalidates the losers, their DirPut notices
        // trim the membership.
        Tick fan = fanOut(snap.sharers, src, home, t, true);
        t = net.send(home, src_node, fan);
        if (!anonymous) {
            DirEntry &e = dir[baddr];
            e.sharers |= 1ull << src;
            e.owner = src;
            e.dirty = true;
        }
        break;
      }

      case BusCmd::BusRepl: {
        // Replacement notification for shared data (paper 3.1):
        // advisory multicast, membership untouched -- cores holding
        // their own replica in a different frame keep their copies,
        // and each invalidated tag sends its own DirPut.
        t = fanOut(snap.sharers, src, home, t, false);
        break;
      }

      case BusCmd::WrBack: {
        // Memory is off-mesh behind the home node's controller; the
        // org accounts the DRAM latency itself. A writeback carrying a
        // valid src is a true eviction and drops membership; anonymous
        // flushes (e.g. M data pushed to memory while the block's
        // ownership moves to a new writer) are timing-only.
        if (!anonymous && found)
            relinquish(*found, src, baddr, true);
        break;
      }

      case BusCmd::DirPut: {
        if (!anonymous && found)
            relinquish(*found, src, baddr, false);
        break;
      }
    }

    if (sink) {
        const DirEntry *after = dir.find(baddr);
        sink->directoryState(t, track, src, baddr,
                             after ? after->sharers : 0,
                             after ? after->owner : invalid_id, cmd);
    }
    return t;
}

Tick
DirectoryInterconnect::transaction(BusCmd cmd, CoreId src, Addr addr,
                                   Tick at)
{
    return request(cmd, src, addr, at);
}

void
DirectoryInterconnect::postedTransaction(BusCmd cmd, CoreId src, Addr addr,
                                         Tick at)
{
    (void)request(cmd, src, addr, at);
}

void
DirectoryInterconnect::attachSink(obs::TraceSink *s)
{
    sink = s;
    track = s ? s->registerComponent("mem.directory") : -1;
    net.attachSink(s);
}

void
DirectoryInterconnect::regStats(StatGroup &group)
{
    for (int i = 0; i < num_bus_cmds; ++i)
        group.addCounter(
            std::string("dir.") + statName(static_cast<BusCmd>(i)),
            &counts[i], "directory requests");
    net.regStats(group);
}

void
DirectoryInterconnect::resetStats()
{
    for (auto &c : counts)
        c.reset();
    net.resetStats();
}

void
DirectoryInterconnect::saveState(ByteWriter &w) const
{
    net.saveState(w);
    // FlatMap iterates in hash order, which is not part of the
    // deterministic contract; serialize lines sorted by block address
    // so identical machine states produce identical checkpoints
    // (cnlint CNL-D003 discipline).
    std::vector<std::pair<Addr, DirEntry>> lines;
    lines.reserve(dir.size());
    dir.forEach([&lines](const Addr &a, const DirEntry &e) {
        lines.emplace_back(a, e);
    });
    std::sort(lines.begin(), lines.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    w.u64(lines.size());
    for (const auto &l : lines) {
        w.u64(l.first);
        w.u64(l.second.sharers);
        w.u32(static_cast<std::uint32_t>(l.second.owner));
        w.u8(l.second.dirty ? 1 : 0);
    }
}

void
DirectoryInterconnect::loadState(ByteReader &r)
{
    net.loadState(r);
    dir.clear();
    std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
        Addr a = r.u64();
        DirEntry e;
        e.sharers = r.u64();
        e.owner = static_cast<CoreId>(static_cast<std::int32_t>(r.u32()));
        e.dirty = r.u8() != 0;
        dir[a] = e;
    }
}

} // namespace cnsim
