#include "cqa/db/stats.h"

#include <cmath>

namespace cqa {

namespace {

void Accumulate(InconsistencyStats* s, const Database::Block& block) {
  s->facts += block.size();
  s->blocks += 1;
  if (block.size() > 1) s->violating_blocks += 1;
  s->max_block_size = std::max(s->max_block_size, block.size());
  s->block_sizes[block.size()] += 1;
  s->log2_repairs += std::log2(static_cast<double>(block.size()));
}

}  // namespace

std::string InconsistencyStats::ToString() const {
  std::string out = std::to_string(facts) + " facts, " +
                    std::to_string(blocks) + " blocks, " +
                    std::to_string(violating_blocks) +
                    " violating (max block " +
                    std::to_string(max_block_size) + "), ~2^" +
                    std::to_string(log2_repairs) + " repairs";
  return out;
}

InconsistencyStats ComputeStats(const Database& db) {
  InconsistencyStats out;
  for (const RelationSchema& rs : db.schema().relations()) {
    for (const Database::Block& block : db.BlocksOf(rs.name)) {
      Accumulate(&out, block);
    }
  }
  return out;
}

std::map<std::string, InconsistencyStats> ComputeStatsPerRelation(
    const Database& db) {
  std::map<std::string, InconsistencyStats> out;
  for (const RelationSchema& rs : db.schema().relations()) {
    for (const Database::Block& block : db.BlocksOf(rs.name)) {
      Accumulate(&out[SymbolName(rs.name)], block);
    }
  }
  return out;
}

Database CertainFacts(const Database& db) {
  Database out(db.schema());
  for (int b = 0; b < static_cast<int>(db.NumBlocks()); ++b) {
    if (db.block(b).size() != 1) continue;
    Result<bool> r = out.AddFact(db.block(b).relation, db.BlockFact(b, 0));
    (void)r;
  }
  return out;
}

}  // namespace cqa
