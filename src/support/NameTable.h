//===- support/NameTable.h - Enum spelling tables ---------------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One list of spellings per enum, read in both directions: value -> name
/// for the CLI, stats and wire formats, and name -> value for parsing them.
/// The enum's values must be 0..N-1 in declaration order, so a value is
/// its spelling's index.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_SUPPORT_NAMETABLE_H
#define MARQSIM_SUPPORT_NAMETABLE_H

#include <cstddef>
#include <optional>
#include <string>

namespace marqsim {

/// A view of a fixed array of spellings.
class NameTable {
public:
  constexpr NameTable() = default;
  template <size_t N>
  constexpr NameTable(const char *const (&Names)[N]) : Names(Names), Size(N) {}

  /// The spelling at \p Index; the first spelling for out-of-range values.
  const char *name(size_t Index) const {
    return Names[Index < Size ? Index : 0];
  }

  /// The index of \p Name; std::nullopt for unknown spellings.
  std::optional<size_t> find(const std::string &Name) const {
    for (size_t I = 0; I < Size; ++I)
      if (Name == Names[I])
        return I;
    return std::nullopt;
  }

  /// "a, b, c": every spelling, for error messages.
  std::string list() const {
    std::string Out;
    for (size_t I = 0; I < Size; ++I)
      Out += (I ? ", " : "") + std::string(Names[I]);
    return Out;
  }

private:
  const char *const *Names = nullptr;
  size_t Size = 0;
};

/// The spelling of \p Value in \p Table.
template <typename Enum> const char *enumName(NameTable Table, Enum Value) {
  return Table.name(static_cast<size_t>(Value));
}

/// Inverse of enumName; std::nullopt for unknown spellings.
template <typename Enum>
std::optional<Enum> parseEnumName(NameTable Table, const std::string &Name) {
  std::optional<size_t> Index = Table.find(Name);
  if (!Index)
    return std::nullopt;
  return static_cast<Enum>(*Index);
}

} // namespace marqsim

#endif // MARQSIM_SUPPORT_NAMETABLE_H
