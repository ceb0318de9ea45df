/**
 * @file
 * Cycle model of the Bit-Pragmatic (PRA) value-aware accelerator
 * (paper Section III-B, Fig 7).
 *
 * A PRA tile processes a pallet — windowColumns consecutive windows
 * along the X axis — term-serially: per step, termsPerFilter channel
 * lanes per window column each stream the effectual (Booth-encoded)
 * terms of their activation. Because the tile's columns share the
 * weight fetch, a step completes only when the activation with the
 * most terms in the (lanes x columns) synchronization group is done
 * ("cross-lane synchronization", the main source of idle cycles).
 *
 * An all-zero synchronization group still costs one cycle.
 */

#ifndef DIFFY_SIM_PRA_HH
#define DIFFY_SIM_PRA_HH

#include "arch/config.hh"
#include "sim/activity.hh"

namespace diffy
{

/**
 * Shared implementation for PRA and Diffy: walk the layer's pallet
 * grid accumulating max-terms step costs. When @p differential is
 * true, window columns beyond the first window of each output row
 * read the delta stream, as in Diffy's row dataflow.
 */
LayerComputeStats simulateTermSerialLayer(const LayerTrace &layer,
                                          const AcceleratorConfig &cfg,
                                          bool differential,
                                          WalkCost cost
                                          = WalkCost::BoothTerms);

/** Simulate one layer on PRA. */
LayerComputeStats simulatePraLayer(const LayerTrace &layer,
                                   const AcceleratorConfig &cfg);

/** Simulate a whole network trace on PRA. */
NetworkComputeResult simulatePra(const NetworkTrace &trace,
                                 const AcceleratorConfig &cfg);

} // namespace diffy

#endif // DIFFY_SIM_PRA_HH
