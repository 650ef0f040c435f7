// Half of a CNL-T002 pair linted together with t002_internal_b.cc. An
// anonymous-namespace or static function is reachable only from its
// own file, so b's functions of the same names do not keep these two
// alive.
// cnlint: scope(sim)

namespace
{

int decode() // cnlint-fixture-expect: CNL-T002
{
    return 1;
}

int used()
{
    return 2;
}

} // namespace

static int scale() // cnlint-fixture-expect: CNL-T002
{
    return 3;
}

int entry()
{
    return used();
}
