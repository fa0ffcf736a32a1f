/**
 * @file
 * Shipped-configuration registry implementation.
 */

#include "verify/static/config_registry.hh"

namespace nord {

namespace {

/** Each design's CLI name and its underscored alias. */
const struct
{
    PgDesign design;
    const char *name;
    const char *alias;
} kDesigns[] = {
    {PgDesign::kNoPg, "nopg", "no_pg"},
    {PgDesign::kConvPg, "convpg", "conv_pg"},
    {PgDesign::kConvPgOpt, "convpgopt", "conv_pg_opt"},
    {PgDesign::kNord, "nord", "nord"},
};

}  // namespace

NocConfig
makeShippedConfig(PgDesign design, int rows, int cols)
{
    NocConfig config;
    config.design = design;
    config.rows = rows;
    config.cols = cols;
    return config;
}

bool
parseDesignName(const std::string &name, PgDesign *out)
{
    for (const auto &d : kDesigns) {
        if (name == d.name || name == d.alias) {
            *out = d.design;
            return true;
        }
    }
    return false;
}

std::vector<NamedConfig>
shippedConfigs()
{
    std::vector<NamedConfig> out;
    for (const auto &d : kDesigns) {
        for (int side : {4, 8}) {
            const std::string shape =
                std::to_string(side) + "x" + std::to_string(side);
            out.push_back({std::string(d.name) + "-" + shape,
                           makeShippedConfig(d.design, side, side)});
        }
    }
    return out;
}

}  // namespace nord
