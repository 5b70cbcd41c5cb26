//! The `CON_c` connector composition function (paper Table 1) and the
//! caution sets of Section 4.1.

use super::agg::better;
use super::connector::{Base, Connector};

/// Composes the base parts of two connectors, returning the base of the
/// result together with a flag saying whether the composition itself
/// introduces uncertainty (a `Possibly` result from plain inputs, e.g.
/// `CON_c(., <@) = .*`: associated with something that *may be* an X is
/// only *possibly* associated with an X).
///
/// This is the published Table 1 entry-for-entry; the entries the table
/// leaves blank are `..` (Is-Indirectly-Associated-With), the uniform
/// "composition decays to an indirect association" reading — see DESIGN.md.
fn base_compose(r: Base, c: Base) -> (Base, bool) {
    use Base::*;
    match (r, c) {
        // Row @>: the identity row — CON_c(@>, x) = x.
        (Isa, x) => (x, false),
        // Column @> is also an identity: CON_c(x, @>) = x.
        (x, Isa) => (x, false),
        // Row/column <@: May-Be keeps the other connector but makes it
        // Possibly; <@ composed with itself stays <@.
        (MayBe, MayBe) => (MayBe, false),
        (MayBe, x) => (x, true),
        (x, MayBe) => (x, true),
        // Part-whole compositions.
        (HasPart, HasPart) => (HasPart, false), // transitivity of Has-Part
        (IsPartOf, IsPartOf) => (IsPartOf, false), // transitivity of Is-Part-Of
        (HasPart, IsPartOf) => (SharesSub, false), // A $> B <$ C: shared subparts
        (IsPartOf, HasPart) => (SharesSuper, false), // A <$ B $> C: shared superparts
        (HasPart, SharesSub) => (SharesSub, false), // parts of my part share my subparts
        (IsPartOf, SharesSuper) => (SharesSuper, false),
        (SharesSub, IsPartOf) => (SharesSub, false),
        (SharesSuper, HasPart) => (SharesSuper, false),
        // Everything else decays to an indirect association.
        _ => (IndirectAssoc, false),
    }
}

/// `CON_c`: composes two connectors of `Σ`. `Σ` is closed under this
/// function (Section 3.3.1). If either argument is a `Possibly` connector,
/// so is the result (last paragraph of Section 3.3.1).
pub fn compose(a: Connector, b: Connector) -> Connector {
    let (base, introduces_possibly) = base_compose(a.base, b.base);
    Connector::new(base, a.possibly || b.possibly || introduces_possibly)
}

/// The connector-level caution relation of Section 4.1.
///
/// `in_caution_set(l, b)` holds when `b` is *better* than `l` in `≺`, yet
/// there exists a continuation connector `c` such that `CON_c(l, c)` and
/// `CON_c(b, c)` are incomparable — i.e. pruning the `l`-labelled path just
/// because a `b`-labelled path reached the same node first may lose optimal
/// completions. This is exactly the condition under which the paper's
/// Algorithm 2 re-explores a node (line 11).
pub fn in_caution_set(l: Connector, b: Connector) -> bool {
    if !better(b, l) {
        return false;
    }
    Connector::all().any(|c| {
        let fl = compose(l, c);
        let fb = compose(b, c);
        !better(fb, fl)
    })
}

/// All connectors whose presence in a `best[]` set must *not* prune a path
/// labelled `l`: the caution set of `l` (connector part).
pub fn caution_connectors(l: Connector) -> Vec<Connector> {
    Connector::all().filter(|&b| in_caution_set(l, b)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moose::agg::rank as rk;

    fn c(base: Base) -> Connector {
        Connector::primary(base)
    }

    fn p(base: Base) -> Connector {
        Connector::new(base, true)
    }

    /// Every entry of the published Table 1 (primary × primary block and the
    /// secondary rows/columns the paper spells out).
    #[test]
    fn table1_published_entries() {
        use Base::*;
        // Row @> (identity row).
        for x in Base::ALL {
            assert_eq!(compose(c(Isa), c(x)), c(x), "CON(@>, {x:?})");
        }
        // Column @> (identity column).
        for x in Base::ALL {
            assert_eq!(compose(c(x), c(Isa)), c(x), "CON({x:?}, @>)");
        }
        // Row <@.
        assert_eq!(compose(c(MayBe), c(MayBe)), c(MayBe));
        assert_eq!(compose(c(MayBe), c(HasPart)), p(HasPart));
        assert_eq!(compose(c(MayBe), c(IsPartOf)), p(IsPartOf));
        assert_eq!(compose(c(MayBe), c(Assoc)), p(Assoc));
        assert_eq!(compose(c(MayBe), c(SharesSub)), p(SharesSub));
        assert_eq!(compose(c(MayBe), c(SharesSuper)), p(SharesSuper));
        assert_eq!(compose(c(MayBe), c(IndirectAssoc)), p(IndirectAssoc));
        // Column <@.
        assert_eq!(compose(c(HasPart), c(MayBe)), p(HasPart));
        assert_eq!(compose(c(IsPartOf), c(MayBe)), p(IsPartOf));
        assert_eq!(compose(c(Assoc), c(MayBe)), p(Assoc));
        assert_eq!(compose(c(SharesSub), c(MayBe)), p(SharesSub));
        assert_eq!(compose(c(SharesSuper), c(MayBe)), p(SharesSuper));
        assert_eq!(compose(c(IndirectAssoc), c(MayBe)), p(IndirectAssoc));
        // Row $>.
        assert_eq!(compose(c(HasPart), c(HasPart)), c(HasPart));
        assert_eq!(compose(c(HasPart), c(IsPartOf)), c(SharesSub));
        assert_eq!(compose(c(HasPart), c(SharesSub)), c(SharesSub));
        assert_eq!(compose(c(HasPart), c(SharesSuper)), c(IndirectAssoc));
        assert_eq!(compose(c(HasPart), c(IndirectAssoc)), c(IndirectAssoc));
        // Row <$.
        assert_eq!(compose(c(IsPartOf), c(HasPart)), c(SharesSuper));
        assert_eq!(compose(c(IsPartOf), c(IsPartOf)), c(IsPartOf));
        assert_eq!(compose(c(IsPartOf), c(SharesSuper)), c(SharesSuper));
        // Row . : everything structural decays to `..`.
        assert_eq!(compose(c(Assoc), c(Assoc)), c(IndirectAssoc));
        assert_eq!(compose(c(Assoc), c(HasPart)), c(IndirectAssoc));
        assert_eq!(compose(c(Assoc), c(IsPartOf)), c(IndirectAssoc));
        // Row .SB.
        assert_eq!(compose(c(SharesSub), c(IsPartOf)), c(SharesSub));
        assert_eq!(compose(c(SharesSub), c(SharesSub)), c(IndirectAssoc));
        assert_eq!(compose(c(SharesSub), c(SharesSuper)), c(IndirectAssoc));
        // Row .SP.
        assert_eq!(compose(c(SharesSuper), c(HasPart)), c(SharesSuper));
        assert_eq!(compose(c(SharesSuper), c(SharesSuper)), c(IndirectAssoc));
        // Row ..
        assert_eq!(compose(c(IndirectAssoc), c(Assoc)), c(IndirectAssoc));
        assert_eq!(
            compose(c(IndirectAssoc), c(IndirectAssoc)),
            c(IndirectAssoc)
        );
    }

    /// The paper's worked examples for secondary connectors (Section 3.3.1).
    #[test]
    fn paper_examples() {
        use Base::*;
        // engine Has-Part screw, screw Is-Part-Of chassis
        //   => engine Shares-SubParts-With chassis.
        assert_eq!(compose(c(HasPart), c(IsPartOf)), c(SharesSub));
        // motor Is-Part-Of assembly, assembly Has-Part shaft
        //   => motor Shares-SuperParts-With shaft.
        assert_eq!(compose(c(IsPartOf), c(HasPart)), c(SharesSuper));
        // dept Is-Associated-With student, student Is-Associated-With course
        //   => dept Is-Indirectly-Associated-With course.
        assert_eq!(compose(c(Assoc), c(Assoc)), c(IndirectAssoc));
        // course Is-Associated-With teacher, teacher May-Be professor
        //   => course Possibly-Is-Associated-With professor.
        assert_eq!(compose(c(Assoc), c(MayBe)), p(Assoc));
    }

    /// "Once any of the arguments of CON_c is a Possibly connector, the
    /// result will always be a Possibly connector" — except that the result
    /// base is never Isa/May-Be in that case, so the rule is total.
    #[test]
    fn possibly_is_contagious() {
        for a in Connector::all() {
            for b in Connector::all() {
                if a.possibly || b.possibly {
                    let r = compose(a, b);
                    assert!(r.possibly, "CON({a}, {b}) = {r} should be Possibly");
                }
            }
        }
    }

    /// Possibly arguments compose exactly like their plain versions, up to
    /// the Possibly flag (the three derived tables of Section 3.3.1).
    #[test]
    fn possibly_tables_mirror_plain_table() {
        for a in Connector::all() {
            for b in Connector::all() {
                let plain = compose(Connector::primary(a.base), Connector::primary(b.base));
                assert_eq!(compose(a, b).base, plain.base);
            }
        }
    }

    /// Sigma is closed under CON_c and the Isa/May-Be invariant holds.
    #[test]
    fn sigma_closed_and_invariant_kept() {
        for a in Connector::all() {
            for b in Connector::all() {
                let r = compose(a, b);
                if matches!(r.base, Base::Isa | Base::MayBe) {
                    assert!(!r.possibly);
                }
            }
        }
    }

    /// CON_c is associative on connectors (property 1 restricted to the
    /// connector part), verified exhaustively over all 14^3 triples.
    #[test]
    fn con_c_is_associative() {
        for a in Connector::all() {
            for b in Connector::all() {
                for cc in Connector::all() {
                    assert_eq!(
                        compose(a, compose(b, cc)),
                        compose(compose(a, b), cc),
                        "({a} {b} {cc})"
                    );
                }
            }
        }
    }

    /// Composition can only weaken a connector: the rank of the result is at
    /// least the rank of either argument. This is the connector half of the
    /// paper's monotonicity property 7 and what makes rank-based pruning
    /// sound (see ipe-core).
    #[test]
    fn composition_never_strengthens() {
        for a in Connector::all() {
            for b in Connector::all() {
                let r = compose(a, b);
                assert!(rk(r) >= rk(a), "rank(CON({a},{b})) < rank({a})");
                assert!(rk(r) >= rk(b), "rank(CON({a},{b})) < rank({b})");
            }
        }
    }

    /// Rank domination does NOT survive right-composition in general — the
    /// counterexample that motivates caution sets: `.` outranks `.SB`, but
    /// after composing with `<$` the order inverts.
    #[test]
    fn rank_order_inverts_under_composition() {
        let assoc = c(Base::Assoc);
        let sb = c(Base::SharesSub);
        assert!(rk(assoc) < rk(sb));
        let inv = c(Base::IsPartOf);
        assert!(rk(compose(assoc, inv)) > rk(compose(sb, inv)));
    }

    /// The caution set of `$>` contains `<@`: a May-Be path into a node must
    /// not suppress a Has-Part path, because continuing both with `$>`
    /// yields `$>*` vs `$>`, which are incomparable (this is the
    /// distributivity failure of Section 4.1 in miniature).
    #[test]
    fn maybe_is_in_caution_set_of_haspart() {
        assert!(in_caution_set(c(Base::HasPart), c(Base::MayBe)));
    }

    #[test]
    fn caution_requires_strictly_better_blocker() {
        for l in Connector::all() {
            for b in Connector::all() {
                if in_caution_set(l, b) {
                    assert!(better(b, l));
                }
            }
        }
    }

    #[test]
    fn caution_sets_are_nonempty_somewhere() {
        let any = Connector::all().any(|l| !caution_connectors(l).is_empty());
        assert!(any, "distributivity failure implies nonempty caution sets");
    }
}
