//! The *better-than* order `≺` over connectors (paper Figure 3), label
//! domination, and `AGG`/`AGG*`.

use super::connector::{Base, Connector};
use super::label::Label;

/// Strength rank of a connector: lower is stronger/more plausible.
///
/// Reconstruction of the paper's Figure 3 (see DESIGN.md §2): `Isa` and
/// `May-Be` are the strongest kinds (they are "semantic identity" links of
/// length 0); part-whole relationships come next (the cognitive-science
/// sources the paper cites rank part-whole above generic association);
/// then direct associations; then the derived sharing relationships; and
/// indirect association is weakest. The `Possibly` flag does not change the
/// rank — a connector and its `Possibly` version are incomparable in `≺`
/// (as the paper requires) and are therefore discriminated by semantic
/// length, the secondary criterion.
pub fn rank(c: Connector) -> u8 {
    match c.base {
        Base::Isa | Base::MayBe => 0,
        Base::HasPart | Base::IsPartOf => 1,
        Base::Assoc => 2,
        Base::SharesSub | Base::SharesSuper => 3,
        Base::IndirectAssoc => 4,
    }
}

/// The strict partial order `≺`: `better(a, b)` iff `a` is strictly more
/// plausible than `b`.
///
/// This realizes every constraint the paper states for Figure 3:
/// * irreflexive (a connector is incomparable to itself);
/// * inverse connectors are incomparable (`@>`/`<@`, `$>`/`<$` share a
///   rank);
/// * a connector is incomparable to its `Possibly` version (same rank).
pub fn better(a: Connector, b: Connector) -> bool {
    rank(a) < rank(b)
}

/// Whether two connectors are incomparable in `≺`.
pub fn incomparable(a: Connector, b: Connector) -> bool {
    rank(a) == rank(b)
}

/// Label domination (the preference AGG is derived from, Section 3.4):
/// primarily by connector (`≺`), secondarily — for incomparable
/// connectors — by smaller semantic length.
pub fn dominates(a: &Label, b: &Label) -> bool {
    better(a.connector, b.connector)
        || (incomparable(a.connector, b.connector) && a.semlen < b.semlen)
}

/// `AGG*` (Section 4.4): keeps the labels whose connector is of the best
/// rank present, then among those keeps the labels whose semantic length is
/// among the `e` lowest *distinct* semantic lengths.
///
/// `agg_star(labels, 1)` is the plain `AGG` of Section 3.4.
///
/// # Panics
///
/// Panics if `e == 0`; the paper requires `E ≥ 1`.
pub fn agg_star(labels: &[Label], e: usize) -> Vec<Label> {
    assert!(e >= 1, "AGG* requires E >= 1");
    ipe_obs::counter!("algebra.agg_star.calls", 1);
    let Some(best_rank) = labels.iter().map(|l| rank(l.connector)).min() else {
        return Vec::new();
    };
    let survivors: Vec<&Label> = labels
        .iter()
        .filter(|l| rank(l.connector) == best_rank)
        .collect();
    let mut lens: Vec<u32> = survivors.iter().map(|l| l.semlen).collect();
    lens.sort_unstable();
    lens.dedup();
    let cutoff = lens[lens.len().min(e) - 1];
    let mut out: Vec<Label> = Vec::new();
    for l in survivors {
        if l.semlen <= cutoff && !out.contains(l) {
            out.push(*l);
        }
    }
    out
}

/// Whether the values `lens` yields hold at least `e` distinct ones.
///
/// Allocation-free for `e` up to 16: `best` sets are `AGG*`-maintained and
/// hold at most `E` distinct lengths, so a fixed inline scratch of the
/// values seen so far suffices. A larger `e` counts through a sorted `Vec`.
pub fn at_least_distinct(lens: impl IntoIterator<Item = u32>, e: usize) -> bool {
    const SCRATCH: usize = 16;
    if e > SCRATCH {
        let mut all: Vec<u32> = lens.into_iter().collect();
        all.sort_unstable();
        all.dedup();
        return all.len() >= e;
    }
    let mut seen = [0u32; SCRATCH];
    let mut n = 0usize;
    for len in lens {
        if n >= e {
            break;
        }
        if !seen[..n].contains(&len) {
            seen[n] = len;
            n += 1;
        }
    }
    n >= e
}

/// Whether `candidate` would survive `AGG*({candidate} ∪ set, e)` — the
/// membership test on lines (9) and (10) of the paper's Algorithm 2,
/// without materializing the union or allocating.
pub fn survives_agg_star(candidate: &Label, set: &[Label], e: usize) -> bool {
    assert!(e >= 1, "AGG* requires E >= 1");
    let cr = rank(candidate.connector);
    if set.iter().any(|l| rank(l.connector) < cr) {
        return false;
    }
    // The candidate survives when fewer than `e` distinct semantic lengths
    // lie strictly below its own among labels of its (i.e. the best) rank.
    !at_least_distinct(
        set.iter()
            .filter(|l| rank(l.connector) == cr && l.semlen < candidate.semlen)
            .map(|l| l.semlen),
        e,
    )
}

/// Folds `candidate` into an `AGG*`-maintained set in place; returns whether
/// the candidate survived (`best[u] := AGG*({l_u} ∪ best[u])`, line 12).
///
/// `set` must already be `AGG*`-closed, as every set built only by this
/// function is. Then one fold drops at most the labels of a worse rank and
/// those of the one length pushed past the `e`-th.
pub fn agg_star_into(set: &mut Vec<Label>, candidate: &Label, e: usize) -> bool {
    if !survives_agg_star(candidate, set, e) {
        ipe_obs::counter!("algebra.agg_star.dominated", 1);
        return false;
    }
    if set.contains(candidate) {
        return true;
    }
    // The candidate survived, so no stored label has a better rank.
    let cr = rank(candidate.connector);
    set.retain(|l| rank(l.connector) == cr);
    set.push(*candidate);
    if at_least_distinct(set.iter().map(|l| l.semlen), e + 1) {
        let longest = set.iter().map(|l| l.semlen).max();
        set.retain(|l| Some(l.semlen) != longest);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moose::connector::RelKind;
    use proptest::prelude::*;

    /// The allocating [`survives_agg_star`] the inline scratch replaced,
    /// kept as its oracle.
    fn survives_oracle(candidate: &Label, set: &[Label], e: usize) -> bool {
        let cr = rank(candidate.connector);
        if set.iter().any(|l| rank(l.connector) < cr) {
            return false;
        }
        let mut lens: Vec<u32> = set
            .iter()
            .filter(|l| rank(l.connector) == cr && l.semlen < candidate.semlen)
            .map(|l| l.semlen)
            .collect();
        lens.sort_unstable();
        lens.dedup();
        lens.len() < e
    }

    /// The [`agg_star_into`] that refiltered a fresh set per survivor, kept
    /// as the in-place fold's oracle.
    fn agg_star_into_oracle(set: &mut Vec<Label>, candidate: &Label, e: usize) -> bool {
        if !survives_oracle(candidate, set, e) {
            return false;
        }
        if !set.contains(candidate) {
            set.push(*candidate);
            *set = agg_star(set, e);
        }
        true
    }

    fn arb_label() -> impl Strategy<Value = Label> {
        let kinds = RelKind::ALL.len();
        (
            0usize..Connector::all().count(),
            0u32..8,
            0..kinds,
            0..kinds,
        )
            .prop_map(|(c, semlen, first, last)| Label {
                connector: Connector::all().nth(c).expect("in range"),
                semlen,
                first: Some(RelKind::ALL[first]),
                last: Some(RelKind::ALL[last]),
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Folding a label stream in place keeps exactly the oracle's set,
        /// in the oracle's order, and answers every membership test alike,
        /// for `E` on both sides of the inline scratch's size.
        #[test]
        fn in_place_fold_matches_the_allocating_oracle(
            stream in proptest::collection::vec(arb_label(), 0..40),
            e in prop_oneof![1usize..6, 15usize..19],
        ) {
            let mut fast = Vec::new();
            let mut oracle = Vec::new();
            for l in &stream {
                prop_assert_eq!(survives_agg_star(l, &fast, e), survives_oracle(l, &oracle, e));
                prop_assert_eq!(
                    agg_star_into(&mut fast, l, e),
                    agg_star_into_oracle(&mut oracle, l, e)
                );
                prop_assert_eq!(&fast, &oracle);
            }
        }
    }

    fn lbl(c: Connector, semlen: u32) -> Label {
        Label {
            connector: c,
            semlen,
            first: Some(RelKind::Assoc),
            last: Some(RelKind::Assoc),
        }
    }

    #[test]
    fn order_is_irreflexive_and_transitive() {
        for a in Connector::all() {
            assert!(!better(a, a));
            for b in Connector::all() {
                // antisymmetry
                assert!(!(better(a, b) && better(b, a)));
                for c in Connector::all() {
                    if better(a, b) && better(b, c) {
                        assert!(better(a, c));
                    }
                }
            }
        }
    }

    #[test]
    fn paper_incomparability_constraints() {
        // Inverse connectors are incomparable.
        assert!(incomparable(Connector::ISA, Connector::MAY_BE));
        assert!(incomparable(Connector::HAS_PART, Connector::IS_PART_OF));
        // Every connector is incomparable with its Possibly version.
        for c in Connector::all() {
            assert!(incomparable(c, c.possibly()));
        }
    }

    #[test]
    fn isa_is_the_strongest_connector() {
        for c in Connector::all() {
            if c != Connector::ISA && c != Connector::MAY_BE {
                assert!(better(Connector::ISA, c), "@> should beat {c}");
            }
        }
    }

    #[test]
    fn identity_label_is_annihilator() {
        // [@>, 0] dominates every label with a worse connector or a longer
        // semantic length; May-Be labels of semlen 0 arise only from Isa
        // cycles, which valid schemas exclude (DESIGN.md §6).
        let theta = Label::IDENTITY;
        for c in Connector::all() {
            for semlen in 1..4 {
                assert!(dominates(&theta, &lbl(c, semlen)), "{c} {semlen}");
            }
        }
    }

    #[test]
    fn domination_prefers_connector_over_length() {
        // A long Has-Part path still beats a short plain association.
        let long_part = lbl(Connector::HAS_PART, 9);
        let short_assoc = lbl(Connector::ASSOC, 1);
        assert!(dominates(&long_part, &short_assoc));
        assert!(!dominates(&short_assoc, &long_part));
    }

    #[test]
    fn domination_uses_length_for_incomparable_connectors() {
        let a = lbl(Connector::HAS_PART, 2);
        let b = lbl(Connector::IS_PART_OF, 4);
        assert!(dominates(&a, &b));
        let tie = lbl(Connector::IS_PART_OF, 2);
        assert!(!dominates(&a, &tie));
        assert!(!dominates(&tie, &a));
    }

    #[test]
    fn agg_star_e1_keeps_minimum_lengths_of_best_rank() {
        let labels = vec![
            lbl(Connector::ASSOC, 3),
            lbl(Connector::HAS_PART, 5),
            lbl(Connector::IS_PART_OF, 5),
            lbl(Connector::HAS_PART, 7),
        ];
        let out = agg_star(&labels, 1);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|l| l.semlen == 5));
    }

    #[test]
    fn agg_star_e2_admits_second_distinct_length() {
        let labels = vec![
            lbl(Connector::HAS_PART, 5),
            lbl(Connector::HAS_PART, 7),
            lbl(Connector::HAS_PART, 7),
            lbl(Connector::HAS_PART, 9),
        ];
        let out = agg_star(&labels, 2);
        let mut lens: Vec<u32> = out.iter().map(|l| l.semlen).collect();
        lens.sort_unstable();
        assert_eq!(lens, vec![5, 7]);
    }

    #[test]
    fn agg_star_dedupes_equal_labels() {
        let labels = vec![lbl(Connector::ASSOC, 2), lbl(Connector::ASSOC, 2)];
        assert_eq!(agg_star(&labels, 3).len(), 1);
    }

    #[test]
    fn agg_star_empty() {
        assert!(agg_star(&[], 1).is_empty());
    }

    #[test]
    #[should_panic(expected = "E >= 1")]
    fn agg_star_rejects_e0() {
        agg_star(&[], 0);
    }

    #[test]
    fn survives_matches_materialized_union() {
        let set = vec![
            lbl(Connector::HAS_PART, 3),
            lbl(Connector::HAS_PART, 5),
            lbl(Connector::IS_PART_OF, 4),
        ];
        for e in 1..4 {
            for c in [
                Connector::ISA,
                Connector::HAS_PART,
                Connector::ASSOC,
                Connector::HAS_PART.possibly(),
            ] {
                for semlen in 0..8 {
                    let cand = lbl(c, semlen);
                    let mut union = set.clone();
                    union.push(cand);
                    let expect = agg_star(&union, e).contains(&cand);
                    assert_eq!(
                        survives_agg_star(&cand, &set, e),
                        expect,
                        "c={c} semlen={semlen} e={e}"
                    );
                }
            }
        }
    }

    #[test]
    fn agg_star_into_maintains_invariant() {
        let mut set = Vec::new();
        let inserts = [
            lbl(Connector::ASSOC, 4),
            lbl(Connector::HAS_PART, 6),
            lbl(Connector::HAS_PART, 2),
            lbl(Connector::IS_PART_OF, 2),
            lbl(Connector::ISA, 1),
        ];
        for l in &inserts {
            agg_star_into(&mut set, l, 2);
        }
        let refiltered = agg_star(&set, 2);
        assert_eq!(set.len(), refiltered.len());
        assert!(set.iter().all(|l| refiltered.contains(l)));
        // The Isa label has the best rank, so it must have evicted the rest.
        assert!(set.iter().all(|l| l.connector == Connector::ISA));
    }
}
