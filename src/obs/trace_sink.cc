#include "obs/trace_sink.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>

#include "common/logging.hh"
#include "obs/auditor.hh"
#include "obs/binlog.hh"

namespace cnsim
{
namespace obs
{

namespace
{

/** Short label for one event, used as the Chrome event name. */
std::string
eventName(const TraceEvent &ev)
{
    switch (ev.kind) {
      case EventKind::BusTx:
        return toString(static_cast<BusCmd>(ev.a));
      case EventKind::Transition:
        return strfmt("%c>%c", stateChar(static_cast<CohState>(ev.a)),
                      stateChar(static_cast<CohState>(ev.b)));
      case EventKind::DGroup:
        return toString(static_cast<DGroupOp>(ev.a));
      case EventKind::L1BackInval:
        return "backInval";
      case EventKind::Resource:
        return "grant";
      case EventKind::CoreStall:
        return "stall";
      case EventKind::Directory:
        return strfmt("dir:%s", toString(static_cast<BusCmd>(ev.b)));
    }
    return "?";
}

} // namespace

int
TraceSink::registerComponent(const std::string &path)
{
    for (std::size_t i = 0; i < comps.size(); ++i) {
        if (comps[i] == path)
            return static_cast<int>(i);
    }
    comps.push_back(path);
    return static_cast<int>(comps.size() - 1);
}

void
TraceSink::record(const TraceEvent &ev)
{
    last_tick = ev.tick;
    if (auditor)
        auditor->onEvent(ev);
    if (armed && binlog)
        binlog->append(ev);
}

std::uint64_t
TraceSink::recordedEvents() const
{
    return binlog ? binlog->records() : 0;
}

void
writeChromeJson(const std::string &path,
                const std::vector<TraceEvent> &events,
                const std::vector<std::string> &components,
                std::uint64_t dropped)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        fatal("cannot open trace output '%s'", path.c_str());
    std::fputs("{\"traceEvents\":[\n", f);
    bool first = true;
    auto sep = [&]() {
        if (!first)
            std::fputs(",\n", f);
        first = false;
    };
    for (std::size_t i = 0; i < components.size(); ++i) {
        sep();
        std::fprintf(f,
                     "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                     "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                     i, components[i].c_str());
    }
    for (const TraceEvent &ev : events) {
        sep();
        std::string name = eventName(ev);
        int tid = ev.component >= 0 ? ev.component : 0;
        if (ev.dur > 0) {
            std::fprintf(f,
                         "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                         "\"ts\":%" PRIu64 ",\"dur\":%" PRIu64 ",\"pid\":0,"
                         "\"tid\":%d",
                         name.c_str(), toString(ev.kind),
                         static_cast<std::uint64_t>(ev.tick), ev.dur, tid);
        } else {
            std::fprintf(f,
                         "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\","
                         "\"s\":\"t\",\"ts\":%" PRIu64 ",\"pid\":0,"
                         "\"tid\":%d",
                         name.c_str(), toString(ev.kind),
                         static_cast<std::uint64_t>(ev.tick), tid);
        }
        std::fprintf(f, ",\"args\":{\"core\":%d", ev.core);
        if (ev.addr)
            std::fprintf(f, ",\"addr\":\"0x%" PRIx64 "\"",
                         static_cast<std::uint64_t>(ev.addr));
        switch (ev.kind) {
          case EventKind::Transition:
            std::fprintf(f, ",\"cause\":\"%s\"",
                         toString(static_cast<TransCause>(ev.c)));
            if (ev.arg & trans_flag_busy)
                std::fputs(",\"busy\":1", f);
            if (ev.arg & trans_flag_broadcast)
                std::fputs(",\"broadcast\":1", f);
            break;
          case EventKind::DGroup:
            std::fprintf(f, ",\"dgroup\":%" PRIu64 ",\"closest\":%d",
                         ev.arg, ev.b ? 1 : 0);
            break;
          case EventKind::Resource:
            std::fprintf(f, ",\"waitTicks\":%" PRIu64, ev.arg);
            break;
          case EventKind::L1BackInval:
            std::fprintf(f, ",\"l1Blocks\":%" PRIu64, ev.arg);
            break;
          case EventKind::Directory:
            std::fprintf(f, ",\"sharers\":\"0x%" PRIx64 "\",\"owner\":%d",
                         ev.arg, static_cast<int>(ev.a) - 1);
            break;
          case EventKind::BusTx:
          case EventKind::CoreStall:
            // No extra args beyond the common core/addr fields.
            break;
        }
        std::fputs("}}", f);
    }
    std::fprintf(f,
                 "\n],\"metadata\":{\"droppedEvents\":%" PRIu64 "}}\n",
                 dropped);
    std::fclose(f);
}

std::string
formatEvent(const TraceEvent &ev, const std::vector<std::string> &components)
{
    std::string comp = "?";
    if (ev.component >= 0 &&
        static_cast<std::size_t>(ev.component) < components.size())
        comp = components[ev.component];
    std::string s = strfmt("[%10" PRIu64 "] %-26s",
                           static_cast<std::uint64_t>(ev.tick),
                           comp.c_str());
    switch (ev.kind) {
      case EventKind::BusTx:
        s += strfmt("busTx %s dur=%" PRIu64,
                    toString(static_cast<BusCmd>(ev.a)), ev.dur);
        break;
      case EventKind::Transition:
        s += strfmt("core%d 0x%" PRIx64 " %c>%c cause=%s%s%s", ev.core,
                    static_cast<std::uint64_t>(ev.addr),
                    stateChar(static_cast<CohState>(ev.a)),
                    stateChar(static_cast<CohState>(ev.b)),
                    toString(static_cast<TransCause>(ev.c)),
                    (ev.arg & trans_flag_busy) ? " busy" : "",
                    (ev.arg & trans_flag_broadcast) ? " bcast" : "");
        break;
      case EventKind::DGroup:
        s += strfmt("core%d 0x%" PRIx64 " dg%" PRIu64 " %s%s", ev.core,
                    static_cast<std::uint64_t>(ev.addr), ev.arg,
                    toString(static_cast<DGroupOp>(ev.a)),
                    ev.b ? " closest" : "");
        break;
      case EventKind::L1BackInval:
        s += strfmt("core%d 0x%" PRIx64 " backInval blocks=%" PRIu64,
                    ev.core, static_cast<std::uint64_t>(ev.addr), ev.arg);
        break;
      case EventKind::Resource:
        s += strfmt("grant wait=%" PRIu64 " occ=%" PRIu64, ev.arg, ev.dur);
        break;
      case EventKind::CoreStall:
        s += strfmt("core%d 0x%" PRIx64 " stall dur=%" PRIu64, ev.core,
                    static_cast<std::uint64_t>(ev.addr), ev.dur);
        break;
      case EventKind::Directory:
        s += strfmt("core%d 0x%" PRIx64
                    " dir %s sharers=0x%" PRIx64 " owner=%d",
                    ev.core, static_cast<std::uint64_t>(ev.addr),
                    toString(static_cast<BusCmd>(ev.b)), ev.arg,
                    static_cast<int>(ev.a) - 1);
        break;
    }
    return s;
}

std::string
summarize(const std::vector<TraceEvent> &events,
          const std::vector<std::string> &components,
          std::uint64_t dropped)
{
    std::uint64_t by_kind[num_event_kinds] = {};
    std::map<int, std::uint64_t> by_comp;
    std::uint64_t by_cause[num_trans_causes] = {};
    std::uint64_t by_cmd[num_bus_cmds] = {};
    std::uint64_t by_dgop[num_dgroup_ops] = {};
    Tick lo = 0, hi = 0;
    bool have_tick = false;
    for (const TraceEvent &ev : events) {
        int k = static_cast<int>(ev.kind);
        if (k >= 0 && k < num_event_kinds)
            ++by_kind[k];
        ++by_comp[ev.component];
        if (ev.kind == EventKind::Transition &&
            ev.c < num_trans_causes)
            ++by_cause[ev.c];
        if (ev.kind == EventKind::BusTx && ev.a < num_bus_cmds)
            ++by_cmd[ev.a];
        if (ev.kind == EventKind::DGroup && ev.a < num_dgroup_ops)
            ++by_dgop[ev.a];
        if (!have_tick) {
            lo = hi = ev.tick;
            have_tick = true;
        } else {
            lo = std::min(lo, ev.tick);
            hi = std::max(hi, ev.tick);
        }
    }
    std::string s = strfmt("%zu events", events.size());
    if (have_tick)
        s += strfmt(", ticks [%" PRIu64 ", %" PRIu64 "]",
                    static_cast<std::uint64_t>(lo),
                    static_cast<std::uint64_t>(hi));
    if (dropped)
        s += strfmt("\nWARNING: incomplete capture -- %" PRIu64
                    " events dropped before they reached the log",
                    dropped);
    s += "\n\nby kind:\n";
    for (int k = 0; k < num_event_kinds; ++k) {
        if (by_kind[k])
            s += strfmt("  %-12s %10" PRIu64 "\n",
                        toString(static_cast<EventKind>(k)), by_kind[k]);
    }
    s += "\nby component:\n";
    for (const auto &kv : by_comp) {
        std::string name = "?";
        if (kv.first >= 0 &&
            static_cast<std::size_t>(kv.first) < components.size())
            name = components[kv.first];
        s += strfmt("  %-26s %10" PRIu64 "\n", name.c_str(), kv.second);
    }
    bool any_cause = false;
    for (int c = 0; c < num_trans_causes; ++c)
        any_cause = any_cause || by_cause[c];
    if (any_cause) {
        s += "\ntransitions by cause:\n";
        for (int c = 0; c < num_trans_causes; ++c) {
            if (by_cause[c])
                s += strfmt("  %-12s %10" PRIu64 "\n",
                            toString(static_cast<TransCause>(c)),
                            by_cause[c]);
        }
    }
    bool any_cmd = false;
    for (int c = 0; c < num_bus_cmds; ++c)
        any_cmd = any_cmd || by_cmd[c];
    if (any_cmd) {
        s += "\nbus transactions:\n";
        for (int c = 0; c < num_bus_cmds; ++c) {
            if (by_cmd[c])
                s += strfmt("  %-12s %10" PRIu64 "\n",
                            toString(static_cast<BusCmd>(c)), by_cmd[c]);
        }
    }
    bool any_dg = false;
    for (int c = 0; c < num_dgroup_ops; ++c)
        any_dg = any_dg || by_dgop[c];
    if (any_dg) {
        s += "\nd-group operations:\n";
        for (int c = 0; c < num_dgroup_ops; ++c) {
            if (by_dgop[c])
                s += strfmt("  %-12s %10" PRIu64 "\n",
                            toString(static_cast<DGroupOp>(c)),
                            by_dgop[c]);
        }
    }
    return s;
}

} // namespace obs
} // namespace cnsim
