#include "sim/system.hh"

#include "common/logging.hh"
#include "l2/dnuca_l2.hh"
#include "mem/directory.hh"
#include "l2/ideal_l2.hh"
#include "l2/update_l2.hh"

namespace cnsim
{

const char *
toString(L2Kind k)
{
    switch (k) {
      case L2Kind::Shared: return "shared";
      case L2Kind::Private: return "private";
      case L2Kind::Snuca: return "snuca";
      case L2Kind::Ideal: return "ideal";
      case L2Kind::Nurapid: return "nurapid";
      case L2Kind::Update: return "update";
      case L2Kind::Dnuca: return "dnuca";
    }
    cnsim_unreachable("L2Kind");
}

System::System(const SystemConfig &c) : cfg(c)
{
    // cfg.num_cores is the single source of truth. The per-organization
    // params each default to the paper's 4 cores; an organization left
    // at the default follows the system, and an explicitly different
    // value is a configuration bug (it used to silently build a 4-port
    // L2 under an 8-core run loop).
    auto adopt = [this](int &org_cores, const char *what) {
        if (org_cores == 4)
            org_cores = cfg.num_cores;
        cnsim_assert(org_cores == cfg.num_cores,
                     "%s is configured for %d cores but the system has %d",
                     what, org_cores, cfg.num_cores);
    };
    adopt(cfg.shared.num_cores, "the shared L2");
    adopt(cfg.priv.num_cores, "the private L2");
    adopt(cfg.nurapid.num_cores, "CMP-NuRAPID");

    mem = std::make_unique<MainMemory>(cfg.memory);

    switch (cfg.l2_kind) {
      case L2Kind::Shared:
      case L2Kind::Snuca:
      case L2Kind::Ideal:
      case L2Kind::Dnuca:
        l2_block_size = cfg.shared.block_size;
        break;
      case L2Kind::Private:
      case L2Kind::Update:
        l2_block_size = cfg.priv.block_size;
        break;
      case L2Kind::Nurapid:
        l2_block_size = cfg.nurapid.block_size;
        break;
    }

    if (cfg.interconnect == InterconnectKind::Bus) {
        icn = std::make_unique<SnoopBus>(cfg.bus);
    } else {
        // The directory mirrors whatever protocol the organization
        // speaks over it, so its membership bookkeeping matches the
        // per-core cache states the auditor sees.
        CohMode mode = CohMode::Mesi;
        if (cfg.l2_kind == L2Kind::Nurapid && cfg.nurapid.enable_isc)
            mode = CohMode::Mesic;
        else if (cfg.l2_kind == L2Kind::Update)
            mode = CohMode::WriteUpdate;
        icn = std::make_unique<DirectoryInterconnect>(
            cfg.interconnect, cfg.num_cores, l2_block_size, mode,
            cfg.noc);
    }

    switch (cfg.l2_kind) {
      case L2Kind::Shared:
        l2_org = std::make_unique<SharedL2>(cfg.shared, *mem);
        break;
      case L2Kind::Private:
        l2_org = std::make_unique<PrivateL2>(cfg.priv, *icn, *mem);
        break;
      case L2Kind::Snuca:
        l2_org =
            std::make_unique<SnucaL2>(cfg.shared, cfg.snuca, *mem);
        break;
      case L2Kind::Ideal:
        l2_org = std::make_unique<IdealL2>(cfg.shared, cfg.ideal_latency,
                                           *mem);
        break;
      case L2Kind::Nurapid:
        l2_org =
            std::make_unique<CmpNurapid>(cfg.nurapid, *icn, *mem);
        break;
      case L2Kind::Update:
        l2_org = std::make_unique<UpdateL2>(cfg.priv, *icn, *mem);
        break;
      case L2Kind::Dnuca:
        l2_org =
            std::make_unique<DnucaL2>(cfg.shared, cfg.snuca, *mem);
        break;
    }

    l2_notes_l1 = l2_org->wantsL1HitNotes();

    for (int i = 0; i < cfg.num_cores; ++i) {
        l1ds.emplace_back(
            std::make_unique<L1Cache>(strfmt("l1d%d", i), cfg.l1d));
        l1is.emplace_back(
            std::make_unique<L1Cache>(strfmt("l1i%d", i), cfg.l1i));
    }

    l2_org->setL1Hooks(
        [this](CoreId core, Addr baddr) {
            l1ds[core]->invalidateL2Block(baddr, l2_block_size);
            l1is[core]->invalidateL2Block(baddr, l2_block_size);
        },
        [this](CoreId core, Addr baddr, bool wt) {
            l1ds[core]->downgradeL2Block(baddr, l2_block_size, wt);
        });

    // Observability: one sink per System, never shared, so parallel
    // runs stay deterministic and traced runs stay reproducible.
    if (cfg.obs.audit || !cfg.obs.binlog_out.empty()) {
        sink_ = std::make_unique<obs::TraceSink>();
        icn->attachSink(sink_.get());
        mem->attachSink(sink_.get());
        l2_org->setTraceSink(sink_.get());
        for (int i = 0; i < cfg.num_cores; ++i) {
            l1ds[i]->attachSink(sink_.get(), i);
            l1is[i]->attachSink(sink_.get(), i);
        }
        if (cfg.obs.audit) {
            auditor_ = std::make_unique<obs::ProtocolAuditor>(
                auditProtocolFor(cfg.l2_kind), cfg.num_cores);
            auditor_->blockCheck = [this](Addr a) {
                l2_org->checkBlockInvariants(a);
            };
            sink_->setAuditor(auditor_.get());
        }
        if (!cfg.obs.binlog_out.empty()) {
            binlog_ =
                std::make_unique<obs::BinlogWriter>(cfg.obs.binlog_out);
            sink_->setBinlog(binlog_.get());
        }
    }
    if (cfg.obs.metrics_interval > 0) {
        metrics_ = std::make_unique<obs::MetricsRegistry>();
        metrics_->setInterval(cfg.obs.metrics_interval);
        StatGroup g("system");
        regStats(g);
        metrics_->importStatGroup(g);
        if (auto *nu = dynamic_cast<CmpNurapid *>(l2_org.get())) {
            for (int dg = 0; dg < cfg.nurapid.num_dgroups; ++dg) {
                metrics_->addGauge(
                    strfmt("l2.dgroup%d.occupancy", dg), [nu, dg]() {
                        return static_cast<double>(nu->dgroupOccupancy(dg));
                    });
            }
        }
        if (binlog_)
            metrics_->setBinlog(binlog_.get());
    }
}

obs::AuditProtocol
System::auditProtocolFor(L2Kind kind)
{
    switch (kind) {
      case L2Kind::Nurapid:
        return obs::AuditProtocol::Mesic;
      case L2Kind::Private:
        return obs::AuditProtocol::Mesi;
      case L2Kind::Update:
        return obs::AuditProtocol::WriteUpdate;
      case L2Kind::Shared:
      case L2Kind::Snuca:
      case L2Kind::Ideal:
      case L2Kind::Dnuca:
        return obs::AuditProtocol::Directory;
    }
    cnsim_unreachable("L2Kind");
}

Tick
System::access(CoreId core, const TraceRecord &rec, Tick at)
{
    Tick done = accessImpl(core, rec, at);
    // Each trace record's activity is one atomic transaction; pointer
    // structures are consistent again here, so drain the auditor's
    // deferred per-block structural checks.
    if (auditor_)
        auditor_->runDeferredChecks();
    return done;
}

Tick
System::accessImpl(CoreId core, const TraceRecord &rec, Tick at)
{
    Tick t = at;

    // Instruction fetch: an L1I hit overlaps the pipeline; a miss
    // stalls the in-order front end until the L2 responds.
    if (rec.iaddr != 0) {
        if (!l1is[core]->loadHit(rec.iaddr)) {
            MemAccess acc{core, rec.iaddr, MemOp::Ifetch};
            AccessResult r =
                l2_org->access(acc, t + l1is[core]->latency());
            l1is[core]->fill(rec.iaddr, false, r.l1WriteThrough);
            t = r.complete;
        }
    }

    if (rec.op == MemOp::Load) {
        if (l1ds[core]->loadHit(rec.addr)) {
            if (l2_notes_l1)
                l2_org->noteL1Hit(core, rec.addr);
            return t + l1ds[core]->latency();
        }
        MemAccess acc{core, rec.addr, MemOp::Load};
        AccessResult r = l2_org->access(acc, t + l1ds[core]->latency());
        l1ds[core]->fill(rec.addr, r.l1Owned, r.l1WriteThrough);
        return r.complete;
    }

    // Store.
    L1StoreCheck sc = l1ds[core]->storeCheck(rec.addr);
    if (sc == L1StoreCheck::Hit) {
        if (l2_notes_l1)
            l2_org->noteL1Hit(core, rec.addr);
        return t + 1;  // retires into the store buffer
    }
    MemAccess acc{core, rec.addr, MemOp::Store};
    AccessResult r = l2_org->access(acc, t + l1ds[core]->latency());
    l1ds[core]->fill(rec.addr, r.l1Owned, r.l1WriteThrough);
    // Store hits (upgrades, write-throughs to C blocks) retire through
    // the store buffer: the bus/array occupancy is charged above, but
    // the in-order core does not wait for it. Misses still stall for
    // the write-allocate fill.
    if (cfg.store_buffering && r.cls == AccessClass::Hit)
        return t + 1;
    return r.complete;
}

void
System::regStats(StatGroup &group)
{
    l2_org->regStats(group);
    mem->regStats(group);
    icn->regStats(group);
    for (auto &l1 : l1ds)
        l1->regStats(group);
    for (auto &l1 : l1is)
        l1->regStats(group);
}

void
System::resetStats()
{
    l2_org->resetStats();
    mem->resetStats();
    icn->resetStats();
    for (auto &l1 : l1ds)
        l1->resetStats();
    for (auto &l1 : l1is)
        l1->resetStats();
    // Component and metric registration is complete by the measurement
    // epoch, so the binlog header tables written here are final (and
    // deterministic for a given configuration).
    if (binlog_ && !binlog_->active()) {
        std::vector<std::string> metric_paths;
        if (metrics_)
            metric_paths = metrics_->metricPaths();
        binlog_->begin(sink_->components(), metric_paths);
    }
    if (sink_)
        sink_->armRecording();
}

void
System::finishObs(Tick now)
{
    if (metrics_)
        metrics_->finish(now);
    if (binlog_ && binlog_->active())
        binlog_->finish();
}

void
System::saveState(sample::Writer &w) const
{
    mem->saveState(w);
    icn->saveState(w);
    l2_org->saveState(w);
    for (const auto &l1 : l1ds)
        l1->saveState(w);
    for (const auto &l1 : l1is)
        l1->saveState(w);
}

void
System::loadState(sample::Reader &r)
{
    mem->loadState(r);
    icn->loadState(r);
    l2_org->loadState(r);
    for (auto &l1 : l1ds)
        l1->loadState(r);
    for (auto &l1 : l1is)
        l1->loadState(r);
}

void
System::checkpointMeta(
    std::vector<std::pair<std::string, std::uint64_t>> &meta) const
{
    meta.emplace_back("l2.validBlocks", l2_org->validBlockCount());
    std::uint64_t l1d_valid = 0;
    std::uint64_t l1i_valid = 0;
    for (const auto &l1 : l1ds)
        l1d_valid += l1->validBlockCount();
    for (const auto &l1 : l1is)
        l1i_valid += l1->validBlockCount();
    meta.emplace_back("l1d.validBlocks", l1d_valid);
    meta.emplace_back("l1i.validBlocks", l1i_valid);
    if (const auto *dir = dynamic_cast<const DirectoryInterconnect *>(
            icn.get()))
        meta.emplace_back("dir.entries", dir->entries());
}

} // namespace cnsim
