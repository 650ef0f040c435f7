// Compile-fail fixture: enum switches that would silently absorb a new
// enumerator, one without a default and one behind a default.

enum class Dir
{
    North,
    South,
    East,
    West,
};

int
turnPenalty(Dir d)
{
    switch (d) {
    case Dir::North:
        return 0;
    case Dir::South:
        return 2;
    }
    return -1;
}

int
isVertical(Dir d)
{
    switch (d) {
    case Dir::North:
    case Dir::South:
        return 1;
    default:
        return 0;
    }
}
