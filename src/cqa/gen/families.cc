#include "cqa/gen/families.h"

#include <cassert>

namespace cqa {

namespace {
Term X(int i) { return Term::Var("x" + std::to_string(i)); }
Term Y(int i) { return Term::Var("y" + std::to_string(i)); }
}  // namespace

Query ChainQuery(int k, bool negated_tail) {
  assert(k >= 1);
  std::vector<Literal> literals;
  for (int i = 0; i < k; ++i) {
    literals.push_back(
        Pos(Atom("C" + std::to_string(i), 1, {X(i), X(i + 1)})));
  }
  if (negated_tail) {
    literals.push_back(Neg(Atom("CN", 1, {X(k - 1), X(k)})));
  }
  return Query::MakeOrDie(std::move(literals));
}

Query CycleQuery(int k) {
  assert(k >= 2);
  std::vector<Literal> literals;
  for (int i = 0; i < k; ++i) {
    literals.push_back(
        Pos(Atom("C" + std::to_string(i), 1, {X(i), X((i + 1) % k)})));
  }
  return Query::MakeOrDie(std::move(literals));
}

Query PigeonholeQuery() {
  return Query::MakeOrDie(
      {Pos(Atom("R", 1, {Term::Var("x"), Term::Var("y")})),
       Neg(Atom("S", 1, {Term::Var("y"), Term::Var("x")}))});
}

Query PigeonholeCyclicQuery() {
  return Query::MakeOrDie(
      {Pos(Atom("R", 1, {Term::Var("x"), Term::Var("y")})),
       Neg(Atom("S", 1, {Term::Var("y"), Term::Var("x")})),
       Neg(Atom("T", 1, {Term::Var("x"), Term::Var("y")}))});
}

Query PigeonholeBacktrackingQuery() {
  return Query::MakeOrDie(
      {Pos(Atom("R", 1, {Term::Var("x"), Term::Var("y")})),
       Neg(Atom("S", 1, {Term::Var("y"), Term::Var("x")})),
       Neg(Atom("T", 1, {Term::Var("y"), Term::Var("x")}))});
}

Database PigeonholeDatabase(int k) {
  assert(k >= 2);
  Schema schema;
  schema.AddRelationOrDie("R", 2, 1);
  schema.AddRelationOrDie("S", 2, 1);
  schema.AddRelationOrDie("T", 2, 1);
  Database db(std::move(schema));
  for (int i = 1; i <= k; ++i) {
    Value a = Value::Of("a" + std::to_string(i));
    for (int j = 1; j < k; ++j) {
      Value b = Value::Of("b" + std::to_string(j));
      db.AddFactOrDie("R", {a, b});
      db.AddFactOrDie("S", {b, a});
    }
  }
  return db;
}

Query StarQuery(int branches) {
  assert(branches >= 1);
  std::vector<Term> core_terms{Term::Var("x")};
  for (int i = 1; i <= branches; ++i) core_terms.push_back(Y(i));
  std::vector<Literal> literals;
  literals.push_back(Pos(Atom("Core", 1, std::move(core_terms))));
  for (int i = 1; i <= branches; ++i) {
    literals.push_back(
        Neg(Atom("N" + std::to_string(i), 1, {Term::Var("x"), Y(i)})));
  }
  return Query::MakeOrDie(std::move(literals));
}

}  // namespace cqa
