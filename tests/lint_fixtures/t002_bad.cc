// Seeded CNL-T002 violation: a function defined in simulation code
// that nothing in the scanned tree ever uses. (The harness enables
// --dead-symbols for this fixture; the rule is opt-in because it only
// means something when the whole tree is scanned together.)
// cnlint: scope(sim)

int helper()
{
    return 1;
}

int orphan() // cnlint-fixture-expect: CNL-T002
{
    return 2;
}

namespace sim
{

// A namespace body is file scope: its functions are candidates too.
int nestedOrphan() // cnlint-fixture-expect: CNL-T002
{
    return 3;
}

} // namespace sim

int main()
{
    return helper();
}
