//! The Inheritance Semantics Criterion (paper Section 4.3, Figure 4).

use crate::path::Completion;
use ipe_schema::{ClassId, RelId, RelKind, Schema, Symbol};
use std::collections::HashSet;

/// Whether `p1` preempts `p2` under the Inheritance Semantics Criterion.
///
/// The criterion matches the paper's Figure 4: both paths share a common
/// prefix `s`; `p1` then takes a final non-`Isa` relationship named `N`
/// directly (possibly after some `Isa` climbing shared with `p2`), while
/// `p2` climbs *further* up the `Isa` hierarchy before taking a non-`Isa`
/// relationship of the same name `N`. Traditional inheritance semantics
/// dictate that the relationship be inherited from the nearest class, so
/// `p1` wins and `p2` is preempted.
///
/// Concretely: `p1 = α · e1` and `p2 = α · i_1 … i_k · e2` with `k ≥ 1`,
/// where `α` is a common edge prefix, every `i_j` is an `Isa`
/// relationship, `e1`/`e2` are non-`Isa`, and `e1`, `e2` have the same
/// name.
pub fn preempts(schema: &Schema, p1: &Completion, p2: &Completion) -> bool {
    if p1.root != p2.root || p1.edges.is_empty() || p2.edges.is_empty() {
        return false;
    }
    if p1.edges.len() >= p2.edges.len() {
        return false;
    }
    let alpha = p1.edges.len() - 1;
    // Shared prefix α.
    if p1.edges[..alpha] != p2.edges[..alpha] {
        return false;
    }
    let e1 = schema.rel(p1.edges[alpha]);
    let e2 = schema.rel(*p2.edges.last().expect("nonempty"));
    if e1.kind == RelKind::Isa || e2.kind == RelKind::Isa {
        return false;
    }
    if e1.name != e2.name {
        return false;
    }
    // The interior of p2 beyond α (all but its last edge) must be an Isa
    // chain.
    p2.edges[alpha..p2.edges.len() - 1]
        .iter()
        .all(|&e| schema.rel(e).kind == RelKind::Isa)
}

/// Removes every completion preempted by another member of `found`.
///
/// Equivalent to dropping each `p2` for which some `p1` in `found`
/// [`preempts`] it, without testing every pair: every completion
/// `α · e1` with a non-`Isa` last edge can preempt exactly the
/// completions `α · i_1 … i_k · e2` that share its root, its prefix `α`
/// and its last edge's name. So each such completion inserts the key
/// `(root, α, name(e1))` into a set, and `p2` is preempted when the walk
/// back over the `Isa` run before its non-`Isa` last edge meets a prefix
/// whose key is in the set.
pub fn apply_inheritance_criterion(schema: &Schema, found: &mut Vec<Completion>) {
    let is_isa = |e: RelId| schema.rel(e).kind == RelKind::Isa;
    let preempted: Vec<bool> = {
        let mut nearest: HashSet<(ClassId, &[RelId], Symbol)> = HashSet::new();
        for p1 in found.iter() {
            if let Some((&e1, alpha)) = p1.edges.split_last() {
                if !is_isa(e1) {
                    nearest.insert((p1.root, alpha, schema.rel(e1).name));
                }
            }
        }
        found
            .iter()
            .map(|p2| {
                let Some((&e2, rest)) = p2.edges.split_last() else {
                    return false;
                };
                if is_isa(e2) {
                    return false;
                }
                let name = schema.rel(e2).name;
                // `rest[alpha..]` is the Isa run `i_1 … i_k`, k ≥ 1.
                (0..rest.len())
                    .rev()
                    .take_while(|&alpha| is_isa(rest[alpha]))
                    .any(|alpha| nearest.contains(&(p2.root, &rest[..alpha], name)))
            })
            .collect()
    };
    let mut flags = preempted.into_iter();
    found.retain(|_| !flags.next().expect("one flag per completion"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipe_algebra::moose::Label;
    use ipe_schema::{fixtures, Schema};

    /// Builds a completion by walking named relationships.
    fn walk(schema: &Schema, root: &str, rels: &[&str]) -> Completion {
        let root_id = schema.class_named(root).unwrap();
        let mut current = root_id;
        let mut edges = Vec::new();
        for &r in rels {
            let rel = schema
                .out_rel_named(current, schema.symbol(r).unwrap())
                .unwrap_or_else(|| panic!("{} has rel {r}", schema.class_name(current)));
            edges.push(rel.id);
            current = rel.target;
        }
        let mut c = Completion {
            root: root_id,
            edges,
            label: Label::IDENTITY,
        };
        c.label = c.recompute_label(schema);
        c
    }

    /// A schema exhibiting the Figure 4 shape: `name` defined on both
    /// `student` (nearer) and `person` (farther) from `grad`.
    fn shadowing_schema() -> Schema {
        use ipe_schema::{Primitive, SchemaBuilder};
        let mut b = SchemaBuilder::new();
        let person = b.class("person").unwrap();
        let student = b.class("student").unwrap();
        let grad = b.class("grad").unwrap();
        b.isa(student, person).unwrap();
        b.isa(grad, student).unwrap();
        b.attr(person, "name", Primitive::Text).unwrap();
        b.attr(student, "name", Primitive::Text).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn nearer_definition_preempts_farther() {
        let s = shadowing_schema();
        let near = walk(&s, "grad", &["student", "name"]);
        let far = walk(&s, "grad", &["student", "person", "name"]);
        assert!(preempts(&s, &near, &far));
        assert!(!preempts(&s, &far, &near));
    }

    #[test]
    fn apply_filters_preempted_paths() {
        let s = shadowing_schema();
        let near = walk(&s, "grad", &["student", "name"]);
        let far = walk(&s, "grad", &["student", "person", "name"]);
        let mut found = vec![far.clone(), near.clone()];
        apply_inheritance_criterion(&s, &mut found);
        assert_eq!(found, vec![near]);
    }

    #[test]
    fn different_names_do_not_preempt() {
        let s = fixtures::university();
        let p1 = walk(&s, "ta", &["grad", "student", "person", "name"]);
        let p2 = walk(&s, "ta", &["grad", "student", "person", "ssn"]);
        assert!(!preempts(&s, &p1, &p2));
        assert!(!preempts(&s, &p2, &p1));
    }

    #[test]
    fn divergent_prefixes_do_not_preempt() {
        let s = fixtures::university();
        // Both end in `.name` after Isa chains, but the chains diverge at
        // the very first edge (grad vs instructor), so neither path is a
        // proper Isa-extension of the other: no preemption.
        let p1 = walk(&s, "ta", &["grad", "student", "person", "name"]);
        let p2 = walk(
            &s,
            "ta",
            &["instructor", "teacher", "employee", "person", "name"],
        );
        assert!(!preempts(&s, &p1, &p2));
        assert!(!preempts(&s, &p2, &p1));
    }

    #[test]
    fn non_isa_interior_blocks_preemption() {
        use ipe_schema::SchemaBuilder;
        let mut b = SchemaBuilder::new();
        let s_cls = b.class("s").unwrap();
        let m_cls = b.class("m").unwrap();
        let x_cls = b.class("x").unwrap();
        b.rel_with_name(ipe_schema::RelKind::Assoc, s_cls, x_cls, "n")
            .unwrap();
        b.assoc(s_cls, m_cls, "m").unwrap();
        b.rel_named(ipe_schema::RelKind::Assoc, m_cls, x_cls, "n", "m_back")
            .unwrap();
        let s = b.build().unwrap();
        // p2 = s.m.n reaches `n` through an association, not an Isa chain,
        // so the shorter p1 = s.n does not preempt it (the label
        // comparison, not inheritance, decides between them).
        let p1 = walk(&s, "s", &["n"]);
        let p2 = walk(&s, "s", &["m", "n"]);
        assert!(!preempts(&s, &p1, &p2));
    }

    /// The pairwise definition the set-based filter must agree with.
    fn pairwise_filter(schema: &Schema, found: &mut Vec<Completion>) {
        let snapshot = found.clone();
        found.retain(|p2| !snapshot.iter().any(|p1| preempts(schema, p1, p2)));
    }

    /// An `Isa` lattice with multiple inheritance (`k0 @> k1 @> k2` and
    /// `k0 @> k3 @> k2`) whose levels redefine the same attribute names,
    /// plus associations back into it, so random walks share prefixes,
    /// climb `Isa` runs and end on shadowed names.
    fn lattice_schema() -> Schema {
        use ipe_schema::{Primitive, SchemaBuilder};
        let mut b = SchemaBuilder::new();
        let k: Vec<_> = (0..4).map(|i| b.class(&format!("k{i}")).unwrap()).collect();
        let t = b.class("t").unwrap();
        b.isa(k[0], k[1]).unwrap();
        b.isa(k[1], k[2]).unwrap();
        b.isa(k[0], k[3]).unwrap();
        b.isa(k[3], k[2]).unwrap();
        for &c in &k[1..] {
            b.attr(c, "name", Primitive::Text).unwrap();
        }
        b.attr(t, "name", Primitive::Text).unwrap();
        b.attr(k[0], "size", Primitive::Real).unwrap();
        b.attr(k[2], "size", Primitive::Real).unwrap();
        b.assoc(k[2], t, "owns").unwrap();
        b.assoc(k[3], t, "uses").unwrap();
        b.assoc(t, k[0], "pick").unwrap();
        b.build().unwrap()
    }

    /// A walk from `root` that takes, at each step, the out-edge the
    /// next choice selects; stops early at a class with no out-edges.
    fn walk_by_choices(schema: &Schema, root: ClassId, choices: &[u8]) -> Completion {
        let mut at = root;
        let mut edges = Vec::new();
        for &c in choices {
            let out: Vec<_> = schema.out_rels(at).collect();
            if out.is_empty() {
                break;
            }
            let rel = out[c as usize % out.len()];
            edges.push(rel.id);
            at = rel.target;
        }
        Completion {
            root,
            edges,
            label: Label::IDENTITY,
        }
    }

    proptest::proptest! {
        /// The set-based filter keeps exactly what the pairwise
        /// definition keeps, in the same order, on random completion sets
        /// over two roots. Walks extend shared trunks, so sets hold many
        /// common prefixes and `Isa` runs of every length.
        #[test]
        fn set_filter_matches_pairwise_oracle(
            trunks in proptest::collection::vec(
                (0u8..2, proptest::collection::vec(0u8..8, 0..4)),
                1..4,
            ),
            tails in proptest::collection::vec(
                (0usize..4, proptest::collection::vec(0u8..8, 1..5)),
                0..16,
            ),
        ) {
            let s = lattice_schema();
            let roots = [s.class_named("k0").unwrap(), s.class_named("t").unwrap()];
            let mut found = Vec::new();
            for (trunk, rest) in &tails {
                let (r, head) = &trunks[trunk % trunks.len()];
                let choices: Vec<u8> = head.iter().chain(rest).copied().collect();
                found.push(walk_by_choices(&s, roots[*r as usize], &choices));
            }
            let mut want = found.clone();
            pairwise_filter(&s, &mut want);
            apply_inheritance_criterion(&s, &mut found);
            proptest::prop_assert_eq!(found, want);
        }
    }

    /// The oracle's sets do exercise preemption: from `k0`, `name` via
    /// `k1` preempts `name` via `k1 @> k2`, and both hold an `Isa` run.
    #[test]
    fn lattice_schema_has_preempted_walks() {
        let s = lattice_schema();
        let near = walk(&s, "k0", &["k1", "name"]);
        let far = walk(&s, "k0", &["k1", "k2", "name"]);
        assert!(preempts(&s, &near, &far));
        let mut found = vec![far, near.clone()];
        apply_inheritance_criterion(&s, &mut found);
        assert_eq!(found, vec![near]);
    }

    #[test]
    fn isa_final_edge_blocks_preemption() {
        let s = fixtures::university();
        // Completions of `ta ~ student`: one ends with the Isa edge
        // grad@>student; the criterion only covers non-Isa final edges.
        let p1 = walk(&s, "ta", &["grad", "student"]);
        let p2 = walk(&s, "ta", &["grad", "student", "take", "student"]);
        assert!(!preempts(&s, &p1, &p2));
    }
}
