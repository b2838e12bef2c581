/**
 * @file
 * The main of every figure, table and ablation binary. CMake compiles
 * this file once per registered figure with GRIT_FIGURE set to the
 * binary's name; the driver looks the figure up in the registry
 * (figures.cc) and runs it.
 */

#include "figures.h"

int
main(int argc, char **argv)
{
    return grit::bench::figureMain(GRIT_FIGURE, argc, argv);
}
