#include "cqa/delta/delta.h"

#include <algorithm>
#include <set>
#include <utility>

#include "cqa/base/error.h"
#include "cqa/base/interner.h"

namespace cqa {

Result<DeltaApplyOutcome> ApplyDeltaInPlace(Database* db,
                                            const FactDelta& delta) {
  if (delta.ops.size() > kMaxDeltaOps) {
    return Result<DeltaApplyOutcome>::Error(
        ErrorCode::kUnsupported,
        "delta has " + std::to_string(delta.ops.size()) + " ops, max is " +
            std::to_string(kMaxDeltaOps));
  }
  // Validate every op against the schema before touching anything, so a
  // rejected delta leaves nothing half-applied to roll back.
  const Schema& schema = db->schema();
  for (const DeltaOp& op : delta.ops) {
    Symbol rel = InternSymbol(op.relation);
    if (!schema.Has(rel)) {
      return Result<DeltaApplyOutcome>::Error(
          ErrorCode::kUnsupported, "unknown relation '" + op.relation + "'");
    }
    const RelationSchema& rs = schema.Get(rel);
    if (op.values.size() != static_cast<size_t>(rs.arity)) {
      return Result<DeltaApplyOutcome>::Error(
          ErrorCode::kUnsupported,
          "arity mismatch for '" + op.relation + "': got " +
              std::to_string(op.values.size()) + ", expected " +
              std::to_string(rs.arity));
    }
  }

  DeltaApplyOutcome out;
  std::set<std::string> touched;
  for (const DeltaOp& op : delta.ops) {
    Symbol rel = InternSymbol(op.relation);
    Tuple values;
    values.reserve(op.values.size());
    for (const std::string& v : op.values) values.push_back(Value::Of(v));
    touched.insert(op.relation);
    if (op.insert) {
      // Cannot fail after the validation above.
      if (db->AddFact(rel, std::move(values)).value()) ++out.inserted;
    } else {
      if (db->RemoveFact(rel, values)) ++out.deleted;
    }
  }
  out.touched.assign(touched.begin(), touched.end());
  out.fingerprint = FingerprintDatabase(*db);
  return out;
}

Result<DeltaApplyOutcome> ApplyDeltaToDatabase(const Database& base,
                                               const FactDelta& delta) {
  auto next = std::make_shared<Database>(base);  // O(relations)
  Result<DeltaApplyOutcome> out = ApplyDeltaInPlace(next.get(), delta);
  if (out.ok()) out.value().db = std::move(next);
  return out;
}

Json EncodeDeltaOps(const std::vector<DeltaOp>& ops) {
  Json::Array arr;
  arr.reserve(ops.size());
  for (const DeltaOp& op : ops) {
    Json::Array values;
    values.reserve(op.values.size());
    for (const std::string& v : op.values) {
      values.push_back(Json::MakeString(v));
    }
    arr.push_back(JsonObjectBuilder()
                      .Set("op", op.insert ? "insert" : "delete")
                      .Set("relation", op.relation)
                      .Set("values", Json::MakeArray(std::move(values)))
                      .Build());
  }
  return Json::MakeArray(std::move(arr));
}

Result<std::vector<DeltaOp>> DecodeDeltaOps(const Json& ops) {
  using Out = Result<std::vector<DeltaOp>>;
  if (!ops.is_array()) {
    return Out::Error(ErrorCode::kParse, "'ops' must be an array");
  }
  if (ops.AsArray().size() > kMaxDeltaOps) {
    return Out::Error(ErrorCode::kParse,
                      "'ops' has " + std::to_string(ops.AsArray().size()) +
                          " entries, max is " + std::to_string(kMaxDeltaOps));
  }
  std::vector<DeltaOp> decoded;
  decoded.reserve(ops.AsArray().size());
  for (const Json& item : ops.AsArray()) {
    if (!item.is_object()) {
      return Out::Error(ErrorCode::kParse, "each op must be an object");
    }
    DeltaOp op;
    const Json* kind = item.Find("op");
    if (kind == nullptr || !kind->is_string()) {
      return Out::Error(ErrorCode::kParse, "op field 'op' must be a string");
    }
    if (kind->AsString() == "insert") {
      op.insert = true;
    } else if (kind->AsString() == "delete") {
      op.insert = false;
    } else {
      return Out::Error(ErrorCode::kParse,
                        "op field 'op' must be 'insert' or 'delete', got '" +
                            kind->AsString() + "'");
    }
    const Json* relation = item.Find("relation");
    if (relation == nullptr || !relation->is_string() ||
        relation->AsString().empty()) {
      return Out::Error(ErrorCode::kParse,
                        "op field 'relation' must be a non-empty string");
    }
    op.relation = relation->AsString();
    const Json* values = item.Find("values");
    if (values == nullptr || !values->is_array()) {
      return Out::Error(ErrorCode::kParse,
                        "op field 'values' must be an array");
    }
    op.values.reserve(values->AsArray().size());
    for (const Json& v : values->AsArray()) {
      if (!v.is_string()) {
        return Out::Error(ErrorCode::kParse, "op values must be strings");
      }
      op.values.push_back(v.AsString());
    }
    decoded.push_back(std::move(op));
  }
  return decoded;
}

}  // namespace cqa
