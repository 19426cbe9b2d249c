#include "legal/jurisdiction.h"

#include <algorithm>

namespace fairlaw::legal {

const std::vector<Statute>& UsStatutes() {
  static const std::vector<Statute>& statutes = *new std::vector<Statute>{
      {"Title VII of the Civil Rights Act", Jurisdiction::kUs, 1964,
       {"race", "color", "religion", "national_origin", "sex"},
       "Prohibits employment discrimination (disparate treatment and "
       "disparate impact) and retaliation against reporters."},
      {"Equal Credit Opportunity Act (ECOA)", Jurisdiction::kUs, 1974,
       {"race", "color", "religion", "national_origin", "sex", "age"},
       "Prevents discrimination in any credit transaction, including "
       "business credit."},
      {"Fair Housing Act (Title VIII)", Jurisdiction::kUs, 1968,
       {"race", "color", "religion", "sex", "familial_status",
        "national_origin", "disability"},
       "Prohibits discrimination in housing."},
      {"Title VI of the Civil Rights Act", Jurisdiction::kUs, 1964,
       {"race", "color", "national_origin"},
       "No exclusion from federally assisted programs on protected "
       "grounds."},
      {"Pregnancy Discrimination Act (PDA)", Jurisdiction::kUs, 1978,
       {"pregnancy", "sex"},
       "Amends Title VII: pregnancy, childbirth and related conditions."},
      {"Equal Pay Act (EPA)", Jurisdiction::kUs, 1963,
       {"sex"},
       "Prohibits sex-based wage discrimination for equal work."},
      {"Age Discrimination in Employment Act (ADEA)", Jurisdiction::kUs,
       1967,
       {"age"},
       "Protects individuals aged 40 or older in employment."},
      {"Americans with Disabilities Act, Title I (ADA)", Jurisdiction::kUs,
       1990,
       {"disability"},
       "Prohibits discrimination against qualified individuals with "
       "disabilities."},
      {"Civil Rights Act of 1991, Sections 102-103", Jurisdiction::kUs,
       1991,
       {"race", "color", "religion", "national_origin", "sex",
        "disability"},
       "Adds jury trials and compensatory/punitive damages for "
       "intentional discrimination."},
      {"Rehabilitation Act, Sections 501 and 505", Jurisdiction::kUs, 1973,
       {"disability"},
       "Disability protection and reasonable accommodation in the "
       "federal government."},
      {"Genetic Information Nondiscrimination Act (GINA)",
       Jurisdiction::kUs, 2008,
       {"genetic_information"},
       "Protects against discrimination based on genetic information."},
      {"Pregnant Workers Fairness Act (PWFA)", Jurisdiction::kUs, 2022,
       {"pregnancy"},
       "Mandates reasonable accommodation for limitations related to "
       "pregnancy and childbirth."},
      {"Immigration and Nationality Act (INA)", Jurisdiction::kUs, 1965,
       {"national_origin"},
       "Abolished national-origin quotas; preference system for "
       "relatives, skilled professionals, refugees."},
  };
  return statutes;
}

const std::vector<Statute>& EuInstruments() {
  static const std::vector<Statute>& statutes = *new std::vector<Statute>{
      {"ECHR Article 14", Jurisdiction::kEu, 1950,
       {"sex", "race", "color", "language", "religion", "political_opinion",
        "national_origin", "minority_association", "property", "birth"},
       "Prohibition of discrimination in the enjoyment of Convention "
       "rights."},
      {"ECHR Protocol 12", Jurisdiction::kEu, 2000,
       {"sex", "race", "color", "language", "religion", "political_opinion",
        "national_origin", "minority_association", "property", "birth"},
       "General prohibition of discrimination in any right set forth by "
       "law."},
      {"European Social Charter (revised), Article E", Jurisdiction::kEu,
       1996,
       {"race", "color", "sex", "language", "religion", "political_opinion",
        "national_origin", "health", "minority_association", "birth"},
       "Non-discrimination in the enjoyment of Charter rights."},
      {"EU Charter of Fundamental Rights, Article 21", Jurisdiction::kEu,
       2000,
       {"sex", "race", "color", "ethnic_origin", "genetic_information",
        "language", "religion", "political_opinion", "minority_association",
        "property", "birth", "disability", "age", "sexual_orientation"},
       "Any discrimination based on any ground shall be prohibited; Arts. "
       "20, 22, 23 add equality before the law, diversity, gender "
       "equality."},
      {"Treaty on European Union, Articles 2-3", Jurisdiction::kEu, 1992,
       {"sex"},
       "Union founded on equality; shall combat social exclusion and "
       "discrimination."},
      {"Council Directive 2000/43/EC (Racial Equality)", Jurisdiction::kEu,
       2000,
       {"race", "ethnic_origin"},
       "Equal treatment irrespective of racial or ethnic origin."},
      {"Council Directive 2000/78/EC (Employment Framework)",
       Jurisdiction::kEu, 2000,
       {"religion", "disability", "age", "sexual_orientation"},
       "General framework for equal treatment in employment and "
       "occupation."},
      {"Council Directive 2004/113/EC (Gender Goods & Services)",
       Jurisdiction::kEu, 2004,
       {"sex"},
       "Equal treatment of men and women in access to and supply of goods "
       "and services."},
      {"Directive 2006/54/EC (Gender Employment, recast)",
       Jurisdiction::kEu, 2006,
       {"sex"},
       "Equal opportunities and equal treatment of men and women in "
       "employment and occupation."},
  };
  return statutes;
}

const std::vector<Statute>& StatutesOf(Jurisdiction jurisdiction) {
  return jurisdiction == Jurisdiction::kUs ? UsStatutes() : EuInstruments();
}

std::vector<const Statute*> StatutesProtecting(const std::string& attribute,
                                               Jurisdiction jurisdiction) {
  std::vector<const Statute*> matches;
  for (const Statute& statute : StatutesOf(jurisdiction)) {
    if (std::find(statute.protected_attributes.begin(),
                  statute.protected_attributes.end(),
                  attribute) != statute.protected_attributes.end()) {
      matches.push_back(&statute);
    }
  }
  return matches;
}

}  // namespace fairlaw::legal
