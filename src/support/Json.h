//===- support/Json.h - Minimal ordered JSON value/codec --------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire format of the resident-daemon protocol and the CLI's
/// machine-readable stats: a small JSON DOM with a deterministic compact
/// writer and a strict recursive-descent parser.
///
/// Design points that matter to the protocol:
///   * Objects preserve insertion order, so dump() output is byte-stable
///     for a given construction sequence — diffable in CI and cacheable
///     by content hash.
///   * Numbers distinguish integers (exact int64 round trip) from
///     doubles. Values whose bits must survive transport exactly (seeds,
///     times, weights, fidelities) do NOT travel as JSON numbers at all:
///     the protocol encodes them as 16-digit IEEE-754 hex strings via
///     support/Serial.h, and this module never needs to promise exact
///     double round trips.
///   * The parser enforces a nesting-depth limit and rejects trailing
///     garbage, so adversarial frames fail cleanly instead of recursing
///     the stack away.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_SUPPORT_JSON_H
#define MARQSIM_SUPPORT_JSON_H

#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace marqsim {
namespace json {

class Value;

/// One object member. Objects are vectors of these: insertion-ordered,
/// no hashing, linear lookup (protocol objects are small).
using Member = std::pair<std::string, Value>;

/// A JSON value. Cheap default construction (null); copyable.
class Value {
public:
  enum class Kind { Null, Bool, Int, Double, String, Array, Object };

  Value() = default;
  Value(std::nullptr_t) {}
  Value(bool V) : K(Kind::Bool), B(V) {}
  Value(double V) : K(Kind::Double), D(V) {}
  Value(const char *V) : K(Kind::String), S(V) {}
  Value(std::string V) : K(Kind::String), S(std::move(V)) {}
  /// Any non-bool integral type maps onto the Int kind. Values above
  /// INT64_MAX would wrap — transport such values (seeds, hashes) as hex
  /// strings instead.
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  Value(T V) : K(Kind::Int), I(static_cast<int64_t>(V)) {}

  static Value object() {
    Value V;
    V.K = Kind::Object;
    return V;
  }
  static Value array() {
    Value V;
    V.K = Kind::Array;
    return V;
  }

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isObject() const { return K == Kind::Object; }
  bool isArray() const { return K == Kind::Array; }
  bool isString() const { return K == Kind::String; }

  /// Appends (or replaces) a member; asserts on non-objects. Returns
  /// *this so builders can chain.
  Value &set(const std::string &Key, Value V);

  /// Member lookup; nullptr when absent or not an object.
  const Value *find(const std::string &Key) const;
  Value *find(const std::string &Key) {
    return const_cast<Value *>(std::as_const(*this).find(Key));
  }

  /// Appends an array element; asserts on non-arrays.
  void push(Value V);

  /// Array / object element count; 0 for scalars.
  size_t size() const;

  /// Array element access; asserts in range.
  const Value &at(size_t Index) const;

  const std::vector<Value> *items() const {
    return K == Kind::Array ? &Arr : nullptr;
  }
  const std::vector<Member> *members() const {
    return K == Kind::Object ? &Obj : nullptr;
  }

  /// Scalar accessors; return \p Default on kind mismatch. asInt accepts
  /// Int only (protocol counts are always written as Int); asDouble
  /// accepts Int or Double.
  bool asBool(bool Default = false) const {
    return K == Kind::Bool ? B : Default;
  }
  int64_t asInt(int64_t Default = 0) const {
    return K == Kind::Int ? I : Default;
  }
  double asDouble(double Default = 0.0) const {
    if (K == Kind::Double)
      return D;
    if (K == Kind::Int)
      return static_cast<double>(I);
    return Default;
  }
  const std::string &asString() const;

  /// Compact deterministic rendering: no whitespace, members in
  /// insertion order, doubles as shortest-faithful %.17g, non-finite
  /// doubles as null (JSON has no representation for them).
  std::string dump() const;

  /// Strict parse of exactly one JSON value (surrounding whitespace
  /// allowed, trailing garbage rejected). Returns std::nullopt and fills
  /// \p Error (with a byte offset) on malformed text or nesting deeper
  /// than an internal limit.
  static std::optional<Value> parse(const std::string &Text,
                                    std::string *Error = nullptr);

private:
  Kind K = Kind::Null;
  bool B = false;
  int64_t I = 0;
  double D = 0.0;
  std::string S;
  std::vector<Value> Arr;
  std::vector<Member> Obj;
};

} // namespace json
} // namespace marqsim

#endif // MARQSIM_SUPPORT_JSON_H
