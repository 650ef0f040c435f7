// The other half of the t002_internal pair: its own internal decode()
// and scale(), both used here, and the caller of t002_internal_a.cc's
// external entry().
// cnlint: scope(sim)

int entry();

namespace
{

int decode()
{
    return 4;
}

} // namespace

static int scale()
{
    return 5;
}

int main()
{
    return entry() + decode() + scale();
}
