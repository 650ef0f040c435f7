#include "l2/update_l2.hh"

#include "common/bytes.hh"

namespace cnsim
{

AccessResult
UpdateL2::access(const MemAccess &acc, Tick at)
{
    CoreId c = acc.core;
    Addr baddr = blockAlign(acc.addr, params.block_size);
    Tick t = readArray(c, at);

    AccessResult res;
    Block *b = caches[c].find(baddr);

    if (b) {
        caches[c].touch(b);
        if (acc.op != MemOp::Store) {
            // Read hit: updates keep every copy current, so no state
            // work is ever needed.
            record(AccessClass::Hit);
            res.complete = t;
            res.cls = AccessClass::Hit;
            res.l1Owned = isPrivateState(b->state);
            res.l1WriteThrough = b->state == CohState::Shared;
            return res;
        }
        if (b->state == CohState::Shared) {
            // The update-protocol tax: every write to a shared block
            // broadcasts the new data and patches the peer copies (and
            // their L1s) in place.
            Tick tb = bus.transaction(BusCmd::BusUpd, c, baddr, t);
            n_updates.inc();
            bool still_shared = false;
            std::uint64_t peers =
                bus.snoopPeers(baddr, params.num_cores, c);
            forEachCore(peers, [&](CoreId o) {
                if (Block *ob = caches[o].find(baddr)) {
                    still_shared = true;
                    ob->owner = false;
                    // Peer L1 copies now hold stale data; refreshing
                    // them in place is modelled as an invalidation of
                    // the L1 copy (next access refetches from the
                    // updated L2 copy).
                    invalidateL1(o, baddr);
                }
            });
            if (still_shared) {
                emitTrans(tb, c, baddr, CohState::Shared,
                          CohState::Shared, obs::TransCause::PrWr,
                          obs::trans_flag_broadcast);
                b->owner = true;
                record(AccessClass::Hit);
                res.complete = tb;
                res.cls = AccessClass::Hit;
                res.l1WriteThrough = true;
                return res;
            }
            // Everyone else dropped their copy: collapse to Modified
            // and stop paying for updates, once the broadcast that
            // found nobody has been granted.
            emitTrans(tb, c, baddr, b->state, CohState::Modified,
                      obs::TransCause::PrWr);
            t = tb;
        } else {
            emitTrans(t, c, baddr, b->state, CohState::Modified,
                      obs::TransCause::PrWr);
        }
        b->state = CohState::Modified;
        b->owner = true;
        record(AccessClass::Hit);
        res.complete = t;
        res.cls = AccessClass::Hit;
        res.l1Owned = true;
        return res;
    }

    // Miss: fetch the block; with updates, peers keep their copies.
    Miss m = broadcastMiss(c, baddr, acc.op, t);
    Tick data_at = supply(m);

    // Insert locally; peers transition E/M -> Shared but keep copies.
    Block *v = caches[c].victim(baddr);
    evict(c, v, data_at);
    if (m.any) {
        forEachCore(m.peers, [&](CoreId o) {
            Block *ob = caches[o].find(baddr);
            if (ob && isPrivateState(ob->state)) {
                emitTrans(data_at, o, baddr, ob->state, CohState::Shared,
                          m.cmd == BusCmd::BusRdX ? obs::TransCause::BusRdX
                                                  : obs::TransCause::BusRd);
                ob->owner = ob->state == CohState::Modified;
                ob->state = CohState::Shared;
                downgradeL1(o, baddr, true);
            }
        });
    }
    CohState fill_state = m.any ? CohState::Shared
                          : acc.op == MemOp::Store ? CohState::Modified
                                                   : CohState::Exclusive;
    fill(c, v, baddr, fill_state, data_at);

    if (acc.op == MemOp::Store) {
        if (m.any) {
            // The write itself updates the peers; ownership (writeback
            // responsibility) moves to the writer.
            Tick tu = bus.transaction(BusCmd::BusUpd, c, baddr, data_at);
            n_updates.inc();
            emitTrans(tu, c, baddr, CohState::Shared, CohState::Shared,
                      obs::TransCause::PrWr, obs::trans_flag_broadcast);
            forEachCore(m.peers, [&](CoreId o) {
                if (Block *ob = caches[o].find(baddr)) {
                    ob->owner = false;
                    invalidateL1(o, baddr);
                }
            });
            v->owner = true;
            data_at = tu;
            res.l1WriteThrough = true;
        } else {
            res.l1Owned = true;
        }
    } else {
        res.l1Owned = v->state == CohState::Exclusive;
        res.l1WriteThrough = v->state == CohState::Shared;
    }

    AccessClass cls = m.cls();
    record(cls);
    res.complete = data_at;
    res.cls = cls;
    return res;
}

bool
UpdateL2::ownerOf(CoreId core, Addr addr) const
{
    const Block *b = caches[core].find(addr);
    return b && b->owner;
}

void
UpdateL2::regStats(StatGroup &group)
{
    PrivateCaches::regStats(group);
    group.addCounter("l2.updates", &n_updates,
                     "BusUpd write-update broadcasts");
}

void
UpdateL2::resetStats()
{
    PrivateCaches::resetStats();
    n_updates.reset();
}

void
UpdateL2::saveBlock(ByteWriter &w, const Block &b) const
{
    w.u64(b.addr);
    w.u8(static_cast<std::uint8_t>((b.valid ? 1 : 0) | (b.owner ? 2 : 0)));
    w.u8(static_cast<std::uint8_t>(b.state));
}

void
UpdateL2::loadBlock(ByteReader &r, Block &b) const
{
    b.addr = r.u64();
    std::uint8_t flags = r.u8();
    b.valid = flags & 1;
    b.owner = flags & 2;
    b.state = loadCohState(r);
}

} // namespace cnsim
