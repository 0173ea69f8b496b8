"""Walk through the frequentist analyses on the built-in case.

Shows why the original multiplied-tails figure is not a p-value, and what
the statistically sound alternatives (pooling, convolution, Fisher
combination) say about the same data.
"""

from rosterstat import (
    bonferroni_min,
    builtin_paper_case,
    convolved_sum_test,
    elffers_pipeline,
    fisher_combine,
    pooled_test,
    ward_tail_p,
)

original = builtin_paper_case("original")
corrected = builtin_paper_case("corrected")
rkz = ["RKZ-41", "RKZ-42"]

print("=== per-ward conditional tails (corrected data) ===")
for ward in corrected.wards:
    result = ward_tail_p(ward)
    print(f"{ward.name:8s} P(X >= {ward.suspect_incidents}) = {result.p_value:.6g}")

jkz_tail = ward_tail_p(corrected.ward("JKZ"))
bounded = bonferroni_min([jkz_tail.p_value], 27)
print(f"\nJKZ tail with the 27-nurse post-hoc multiplier: {bounded.p_value:.3e}")
print("(the choice of 27, ward level rather than hospital or country, is arbitrary)")

pipeline = elffers_pipeline(original, jkz_multiplier=27)
print(f"\nmultiplied across wards (original data): {pipeline.p_value:.3e}")
print(f"  about 1 in {1 / pipeline.p_value:,.0f}, but {pipeline.notes.split('.')[0]}.")

print("\n=== sound combinations, RKZ only, corrected data ===")
pooled = pooled_test(corrected, rkz)
convolved = convolved_sum_test(corrected, rkz)
fisher = fisher_combine([ward_tail_p(corrected.ward(w)).p_value for w in rkz])
print(f"pooled wards:            p = {pooled.p_value:.4f}")
print(f"convolved per-ward sum:  p = {convolved.p_value:.4f}")
print(f"Fisher combination:      p = {fisher.p_value:.4f}")
print("\nNone of these reject at the 0.001 level the original analysis used.")
