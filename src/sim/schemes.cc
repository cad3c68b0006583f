#include "sim/schemes.hh"

#include "common/log.hh"

namespace dbpsim {

const std::vector<Scheme> &
standardSchemes()
{
    static const std::vector<Scheme> schemes = {
        {"FR-FCFS", "fr-fcfs", "none"},
        {"UBP", "fr-fcfs", "ubp"},
        {"DBP", "fr-fcfs", "dbp"},
        {"TCM", "tcm", "none"},
        {"DBP-TCM", "tcm", "dbp"},
        {"MCP", "fr-fcfs", "mcp"},
        {"PAR-BS", "par-bs", "none"},
        {"ATLAS", "atlas", "none"},
        {"FCFS", "fcfs", "none"},
        {"UBP-TCM", "tcm", "ubp"},
        {"DBP-MCP", "fr-fcfs", "dbp-mcp"},
        {"DBP-MCP-TCM", "tcm", "dbp-mcp"},
    };
    return schemes;
}

const Scheme &
schemeByName(const std::string &name)
{
    for (const auto &s : standardSchemes())
        if (s.name == name)
            return s;
    fatal("unknown scheme '", name, "'");
}

SystemParams
applyScheme(const SystemParams &base, const Scheme &scheme)
{
    SystemParams out = base;
    out.scheduler = scheme.scheduler;
    out.partition = scheme.partition;
    return out;
}

} // namespace dbpsim
