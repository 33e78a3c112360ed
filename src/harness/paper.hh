/**
 * @file
 * The paper's §5 results as one document ("swapram-paper/v1"):
 * Tables 1 and 2, Figures 1 and 7–10, and the ablations.
 *
 * The document lists every distinct cell the tables read (a cell is
 * one run, keyed by workload, system, placement, clock and whatever
 * option differs from sweepSpec's) with the raw counters the tables
 * need, then each table as the rows it prints and the values derived
 * from those counters. The text view is rendered from the document, so
 * the two cannot disagree. tests/golden/paper.json pins it byte for
 * byte; regenerate with
 *
 *     swapram_tool paper --json > tests/golden/paper.json
 */

#ifndef SWAPRAM_HARNESS_PAPER_HH
#define SWAPRAM_HARNESS_PAPER_HH

#include <string>
#include <vector>

#include "harness/engine.hh"
#include "support/json.hh"

namespace swapram::harness {

/** The distinct cells the document's tables read, in the order the
 *  tables first ask for them: paperDocument() runs each once. */
std::vector<RunSpec> paperSpecs();

/**
 * Run every paperSpecs() cell once on @p engine and build the
 * document. Its "failures" lists the key of each cell that threw, or
 * that fitted and did not finish with its workload's golden checksum.
 * It holds no host timing and no job count, so its bytes are the same
 * at any engine size.
 */
support::json::Value paperDocument(const Engine &engine,
                                   const ProgressFn &progress = {});

/** The document's tables as text, in document order. */
std::string paperText(const support::json::Value &doc);

} // namespace swapram::harness

#endif // SWAPRAM_HARNESS_PAPER_HH
