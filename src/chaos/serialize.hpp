#pragma once

/// \file serialize.hpp
/// FaultSpec <-> text: the fault lines of a repro file (DESIGN.md §10).
///
/// A `FaultSpec` names its devices, and every topology builder assigns
/// names deterministically, so a fault written on one build of a topology
/// resolves on any other build of the same topology. The grammar is one
/// line of key=value pairs, and strict: unknown keys, unknown kinds, and
/// numbers that do not fit their field are errors, never guesses.
///
///   fault kind=link_flap a=S1 b=S4 at=900000000000 dur=150000000000
///         count=1 period=0 mag=0
///
/// (one physical line per fault; the wrap above is typographic).
/// `label` is optional and, when present, must be the last key — its value
/// runs to end of line so labels may contain spaces.

#include <string>

#include "chaos/plan.hpp"

namespace dtpsim::chaos {

/// One "fault ..." line (no trailing newline). Throws std::invalid_argument
/// for kPcieStorm: a storm targets a daemon, which has no device name.
std::string fault_to_line(const FaultSpec& spec);

/// Parse one "fault ..." line. Throws std::invalid_argument on malformed
/// input: missing/duplicate/unknown keys, bad numbers, unknown kind, a fault
/// that breaks its kind's rules (validate), or one whose end (fault_end)
/// does not fit fs_t.
FaultSpec fault_from_line(const std::string& line);

}  // namespace dtpsim::chaos
