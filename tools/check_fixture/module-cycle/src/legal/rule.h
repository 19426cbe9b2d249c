#ifndef FAIRLAW_LEGAL_RULE_H_
#define FAIRLAW_LEGAL_RULE_H_

namespace fairlaw::legal {

struct Rule {
  double threshold = 0.8;
};

}  // namespace fairlaw::legal

#endif  // FAIRLAW_LEGAL_RULE_H_
