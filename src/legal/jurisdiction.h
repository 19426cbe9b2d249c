#ifndef FAIRLAW_LEGAL_JURISDICTION_H_
#define FAIRLAW_LEGAL_JURISDICTION_H_

#include <string>
#include <vector>

#include "legal/doctrine.h"

namespace fairlaw::legal {

/// One legal instrument (statute, directive, convention article).
struct Statute {
  std::string name;
  Jurisdiction jurisdiction;
  int year;
  /// Protected attributes the instrument names (canonical lowercase
  /// tokens: "race", "sex", "age", "disability", "religion",
  /// "national_origin", "sexual_orientation", "genetic_information",
  /// "pregnancy", "color", "familial_status", "language", "birth",
  /// "political_opinion", "property").
  std::vector<std::string> protected_attributes;
  std::string summary;
};

/// The US anti-discrimination statutes §II-B(2) of the paper enumerates.
const std::vector<Statute>& UsStatutes();

/// The EU / Council of Europe instruments of §II-A.
const std::vector<Statute>& EuInstruments();

/// All instruments of a jurisdiction.
const std::vector<Statute>& StatutesOf(Jurisdiction jurisdiction);

/// Instruments of `jurisdiction` protecting `attribute` (canonical
/// token). Empty result is NOT an error — it means the attribute is not
/// protected there.
std::vector<const Statute*> StatutesProtecting(const std::string& attribute,
                                               Jurisdiction jurisdiction);

}  // namespace fairlaw::legal

#endif  // FAIRLAW_LEGAL_JURISDICTION_H_
