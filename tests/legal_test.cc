// Legal layer: doctrine taxonomy, statute registry, four-fifths screen,
// EU proportionality, US burden shifting.
#include <gtest/gtest.h>

#include "legal/burden_shifting.h"
#include "legal/doctrine.h"
#include "legal/four_fifths.h"
#include "legal/jurisdiction.h"
#include "legal/proportionality.h"

namespace fairlaw::legal {
namespace {

TEST(DoctrineTest, FourDoctrinesWithExpectedProperties) {
  EXPECT_EQ(AllDoctrines().size(), 4u);
  DoctrineInfo treatment =
      GetDoctrine(Doctrine::kUsDisparateTreatment).ValueOrDie();
  EXPECT_TRUE(treatment.requires_intent);
  EXPECT_FALSE(treatment.justification_available);
  DoctrineInfo impact =
      GetDoctrine(Doctrine::kUsDisparateImpact).ValueOrDie();
  EXPECT_FALSE(impact.requires_intent);
  EXPECT_TRUE(impact.justification_available);
  DoctrineInfo indirect =
      GetDoctrine(Doctrine::kEuIndirectDiscrimination).ValueOrDie();
  EXPECT_TRUE(indirect.justification_available);
  EXPECT_EQ(indirect.jurisdiction, Jurisdiction::kEu);
}

TEST(DoctrineTest, MetricConceptMappingFollowsSectionIvA) {
  // §IV-A: A, B, E, F -> equal outcome; C, D -> equal treatment; G ->
  // substantive.
  EXPECT_EQ(ConceptForMetric("demographic_parity").ValueOrDie(),
            EqualityConcept::kEqualOutcome);
  EXPECT_EQ(ConceptForMetric("conditional_statistical_parity").ValueOrDie(),
            EqualityConcept::kEqualOutcome);
  EXPECT_EQ(ConceptForMetric("demographic_disparity").ValueOrDie(),
            EqualityConcept::kEqualOutcome);
  EXPECT_EQ(
      ConceptForMetric("conditional_demographic_disparity").ValueOrDie(),
      EqualityConcept::kEqualOutcome);
  EXPECT_EQ(ConceptForMetric("equal_opportunity").ValueOrDie(),
            EqualityConcept::kEqualTreatment);
  EXPECT_EQ(ConceptForMetric("equalized_odds").ValueOrDie(),
            EqualityConcept::kEqualTreatment);
  EXPECT_EQ(ConceptForMetric("counterfactual_fairness").ValueOrDie(),
            EqualityConcept::kSubstantive);
  EXPECT_FALSE(ConceptForMetric("made_up_metric").ok());
}

TEST(DoctrineTest, DoctrineForMetricPerJurisdiction) {
  EXPECT_EQ(
      DoctrineForMetric("demographic_parity", Jurisdiction::kUs)
          .ValueOrDie(),
      Doctrine::kUsDisparateImpact);
  EXPECT_EQ(
      DoctrineForMetric("demographic_parity", Jurisdiction::kEu)
          .ValueOrDie(),
      Doctrine::kEuIndirectDiscrimination);
  EXPECT_EQ(
      DoctrineForMetric("counterfactual_fairness", Jurisdiction::kUs)
          .ValueOrDie(),
      Doctrine::kUsDisparateTreatment);
  EXPECT_EQ(
      DoctrineForMetric("counterfactual_fairness", Jurisdiction::kEu)
          .ValueOrDie(),
      Doctrine::kEuDirectDiscrimination);
}

TEST(JurisdictionTest, RegistryCoversThePaperStatutes) {
  EXPECT_EQ(UsStatutes().size(), 13u);  // the thirteen §II-B(2) items
  EXPECT_EQ(EuInstruments().size(), 9u);
  // Title VII protects sex in employment.
  auto statutes = StatutesProtecting("sex", Jurisdiction::kUs);
  bool title7 = false;
  for (const Statute* statute : statutes) {
    if (statute->name.find("Title VII") != std::string::npos) title7 = true;
  }
  EXPECT_TRUE(title7);
  // GINA protects genetic information.
  EXPECT_FALSE(
      StatutesProtecting("genetic_information", Jurisdiction::kUs).empty());
  // Sexual orientation is protected in the EU Charter / 2000/78.
  EXPECT_FALSE(
      StatutesProtecting("sexual_orientation", Jurisdiction::kEu).empty());
  // Fantasy attribute is not protected.
  EXPECT_TRUE(StatutesProtecting("favorite_color", Jurisdiction::kUs).empty());
}

metrics::MetricInput Outcomes(int a_selected, int a_total, int b_selected,
                              int b_total) {
  metrics::MetricInput input;
  for (int i = 0; i < a_total; ++i) {
    input.groups.push_back("a");
    input.predictions.push_back(i < a_selected ? 1 : 0);
  }
  for (int i = 0; i < b_total; ++i) {
    input.groups.push_back("b");
    input.predictions.push_back(i < b_selected ? 1 : 0);
  }
  return input;
}

TEST(FourFifthsTest, ClassicEeocExample) {
  // a: 50% selected, b: 30% -> ratio 0.6 < 0.8 -> fail.
  FourFifthsResult result =
      FourFifthsTest(Outcomes(250, 500, 150, 500)).ValueOrDie();
  EXPECT_FALSE(result.passed);
  EXPECT_EQ(result.reference_group, "a");
  EXPECT_TRUE(result.adverse_impact_indicated);  // large n: significant
  ASSERT_EQ(result.groups.size(), 2u);
  for (const FourFifthsGroup& group : result.groups) {
    if (group.group == "b") {
      EXPECT_NEAR(group.impact_ratio, 0.6, 1e-12);
      EXPECT_TRUE(group.below_threshold);
      EXPECT_TRUE(group.significance.significant);
    }
  }
}

TEST(FourFifthsTest, RatioFailureWithoutSignificance) {
  // Same 0.6 ratio but n=10 per group: the ratio fails, significance
  // does not -> no adverse-impact indication.
  FourFifthsResult result =
      FourFifthsTest(Outcomes(5, 10, 3, 10)).ValueOrDie();
  EXPECT_FALSE(result.passed);
  EXPECT_FALSE(result.adverse_impact_indicated);
}

TEST(FourFifthsTest, BalancedRatesPass) {
  FourFifthsResult result =
      FourFifthsTest(Outcomes(100, 200, 90, 200)).ValueOrDie();
  EXPECT_TRUE(result.passed);  // ratio 0.9
  std::string text = RenderFourFifths(result);
  EXPECT_NE(text.find("PASSED"), std::string::npos);
}

TEST(FourFifthsTest, Validation) {
  metrics::MetricInput single;
  single.groups = {"a", "a"};
  single.predictions = {1, 0};
  EXPECT_FALSE(FourFifthsTest(single).ok());
  EXPECT_FALSE(FourFifthsTest(Outcomes(1, 2, 1, 2), 0.0).ok());
}

TEST(ProportionalityTest, StagesFailInOrder) {
  ProportionalityCase facts;
  facts.measure = "language requirement";
  ProportionalityVerdict verdict = AssessProportionality(facts).ValueOrDie();
  EXPECT_FALSE(verdict.justified);
  EXPECT_EQ(verdict.stage, ProportionalityStage::kLegitimateAim);

  facts.has_legitimate_aim = true;
  facts.aim = "customer safety";
  verdict = AssessProportionality(facts).ValueOrDie();
  EXPECT_EQ(verdict.stage, ProportionalityStage::kSuitability);

  facts.suitable = true;
  verdict = AssessProportionality(facts).ValueOrDie();
  EXPECT_EQ(verdict.stage, ProportionalityStage::kNecessity);

  facts.necessary = true;
  facts.measured_disparity = 0.3;
  facts.proportionate_disparity = 0.1;
  verdict = AssessProportionality(facts).ValueOrDie();
  EXPECT_EQ(verdict.stage, ProportionalityStage::kBalance);
  EXPECT_FALSE(verdict.justified);

  facts.proportionate_disparity = 0.4;
  verdict = AssessProportionality(facts).ValueOrDie();
  EXPECT_TRUE(verdict.justified);
  EXPECT_EQ(verdict.stage, ProportionalityStage::kJustified);
}

TEST(ProportionalityTest, Validation) {
  ProportionalityCase facts;
  facts.measured_disparity = -0.1;
  EXPECT_FALSE(AssessProportionality(facts).ok());
}

TEST(BurdenShiftingTest, NoPrimaFacieNoLiability) {
  BurdenShiftingFacts facts;
  BurdenShiftingResult result =
      RunBurdenShifting(Outcomes(100, 200, 95, 200), facts).ValueOrDie();
  EXPECT_EQ(result.stage, BurdenStage::kNoPrimaFacie);
  EXPECT_FALSE(result.liability);
}

TEST(BurdenShiftingTest, ImpactWithoutNecessityIsLiability) {
  BurdenShiftingFacts facts;  // no defense offered
  BurdenShiftingResult result =
      RunBurdenShifting(Outcomes(250, 500, 150, 500), facts).ValueOrDie();
  EXPECT_EQ(result.stage, BurdenStage::kBusinessNecessityFails);
  EXPECT_TRUE(result.liability);
}

TEST(BurdenShiftingTest, AlternativeDefeatsNecessityDefense) {
  BurdenShiftingFacts facts;
  facts.business_necessity_shown = true;
  facts.necessity_justification = "job-related strength test";
  facts.less_discriminatory_alternative_exists = true;
  facts.alternative = "task-specific simulation";
  BurdenShiftingResult result =
      RunBurdenShifting(Outcomes(250, 500, 150, 500), facts).ValueOrDie();
  EXPECT_EQ(result.stage, BurdenStage::kAlternativeExists);
  EXPECT_TRUE(result.liability);
}

TEST(BurdenShiftingTest, DefenseHoldsWithoutAlternative) {
  BurdenShiftingFacts facts;
  facts.business_necessity_shown = true;
  facts.necessity_justification = "licensing requirement";
  BurdenShiftingResult result =
      RunBurdenShifting(Outcomes(250, 500, 150, 500), facts).ValueOrDie();
  EXPECT_EQ(result.stage, BurdenStage::kDefenseHolds);
  EXPECT_FALSE(result.liability);
  EXPECT_NE(result.reasoning.find("licensing requirement"),
            std::string::npos);
}

}  // namespace
}  // namespace fairlaw::legal
