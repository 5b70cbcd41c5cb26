//! Equivalence and admissibility of index-guided search.
//!
//! The index must be invisible in results: for any schema, query, pruning
//! mode, and `E`, the indexed engine returns exactly the unindexed engine's
//! completions in the same order. Its lower bounds must be admissible —
//! never above the true values of any completion the exhaustive oracle
//! enumerates — which is what makes the index prunes lossless even though
//! the Moose algebra is non-distributive.

use ipe_algebra::moose::{rank, Label};
use ipe_core::{exhaustive, Completer, CompletionConfig, Pruning};
use ipe_gen::{generate_schema, generate_workload, GenConfig, WorkloadConfig};
use ipe_index::{IndexMode, IndexedSchema, SearchIndex};
use ipe_parser::parse_path_expression;
use ipe_schema::{fixtures, RelKind, Schema, SchemaDoc};
use proptest::prelude::*;
use std::sync::Arc;

/// A schema small enough for exhaustive enumeration but with the same
/// structural features as the CUPID calibration (part-whole tree, `Isa`
/// towers, associations, a hub).
fn small_gen(seed: u64) -> GenConfig {
    GenConfig {
        classes: 24,
        tree_roots: 2,
        assoc_edges: 3,
        hubs: 1,
        hub_degree: 5,
        seed,
        ..GenConfig::default()
    }
}

fn displays(schema: &Schema, engine: &Completer, expr: &str) -> Result<Vec<String>, String> {
    let ast = parse_path_expression(expr).map_err(|e| e.to_string())?;
    engine
        .complete(&ast)
        .map(|out| out.iter().map(|c| c.display(schema).to_string()).collect())
        .map_err(|e| e.to_string())
}

#[test]
fn indexed_and_unindexed_agree_on_university() {
    let schema = fixtures::university();
    let index: SearchIndex = Arc::new(IndexedSchema::build(&schema, IndexMode::On));
    let exprs = [
        "ta~name",
        "student~name",
        "department~take",
        "university~professor",
        "course~name",
        "department~teach.name",
        "university~student~name",
        "ta~take~name",
        "department.student~name",
    ];
    // PaperNoCaution is deliberately excluded: the ablation mode is
    // unsound (it loses answers when distributivity fails), so its output
    // depends on exploration order — see
    // `index_ordering_can_rescue_the_no_caution_ablation`.
    for pruning in [Pruning::Safe, Pruning::Paper, Pruning::None] {
        for e in 1..=3 {
            for prefer_specific in [false, true] {
                let cfg = CompletionConfig {
                    e,
                    pruning,
                    prefer_specific,
                    ..Default::default()
                };
                let plain = Completer::with_config(&schema, cfg.clone());
                let mut indexed = Completer::with_config(&schema, cfg);
                assert!(indexed.attach_index(Arc::clone(&index)));
                for expr in exprs {
                    assert_eq!(
                        displays(&schema, &plain, expr),
                        displays(&schema, &indexed, expr),
                        "pruning={pruning:?} e={e} prefer_specific={prefer_specific} {expr}"
                    );
                }
            }
        }
    }
}

/// The no-caution ablation loses answers by design; which answers it loses
/// depends on exploration order. The index's best-bound-first ordering
/// finds the true optimum of `department~take` before the lossy prune can
/// discard its prefix, while the static order loses it — a concrete
/// demonstration of both why the paper needs caution sets and why the
/// equality guarantee is stated for sound pruning modes only.
#[test]
fn index_ordering_can_rescue_the_no_caution_ablation() {
    let schema = fixtures::university();
    let index: SearchIndex = Arc::new(IndexedSchema::build(&schema, IndexMode::On));
    let truth = displays(&schema, &Completer::new(&schema), "department~take").unwrap();
    assert_eq!(truth, vec!["department.student.take".to_string()]);

    let cfg = CompletionConfig {
        pruning: Pruning::PaperNoCaution,
        ..Default::default()
    };
    let plain = Completer::with_config(&schema, cfg.clone());
    let mut indexed = Completer::with_config(&schema, cfg);
    assert!(indexed.attach_index(Arc::clone(&index)));
    assert_ne!(
        displays(&schema, &plain, "department~take").unwrap(),
        truth,
        "the ablation under static order is expected to lose the optimum \
         (if this starts passing, the fixture no longer exercises the \
         distributivity failure)"
    );
    assert_eq!(
        displays(&schema, &indexed, "department~take").unwrap(),
        truth
    );
}

#[test]
fn indexed_and_unindexed_agree_with_exclusions() {
    // The index is built without knowledge of excluded classes; its bounds
    // are then merely more optimistic, so results must still agree.
    let schema = fixtures::university();
    let index: SearchIndex = Arc::new(IndexedSchema::build(&schema, IndexMode::On));
    let cfg = CompletionConfig {
        e: 2,
        excluded_classes: vec![schema.class_named("grad").unwrap()],
        ..Default::default()
    };
    let plain = Completer::with_config(&schema, cfg.clone());
    let mut indexed = Completer::with_config(&schema, cfg);
    assert!(indexed.attach_index(Arc::clone(&index)));
    for expr in ["ta~name", "university~student~name"] {
        assert_eq!(
            displays(&schema, &plain, expr),
            displays(&schema, &indexed, expr),
            "{expr}"
        );
    }
}

/// A lazy index builds each goal table when a search first names it; the
/// tables, and so the completions and every search counter, equal the
/// eager index's — for every relationship name, from every class, and for
/// a name no edge carries, which neither index has a table for.
#[test]
fn lazy_index_matches_eager_index() {
    let churn = generate_schema(&GenConfig {
        classes: 8,
        hub_degree: 6,
        seed: 51,
        ..GenConfig::default()
    });
    let schemas = [
        fixtures::university(),
        generate_schema(&small_gen(3)).schema,
        churn.schema,
    ];
    for schema in &schemas {
        let eager: SearchIndex = Arc::new(IndexedSchema::build(schema, IndexMode::On));
        let lazy: SearchIndex = Arc::new(IndexedSchema::build(schema, IndexMode::Lazy));
        assert_eq!(lazy.goal_count(), 0);
        let mut names: Vec<&str> = schema
            .rels()
            .map(|r| schema.name(schema.rel(r).name))
            .collect();
        names.sort_unstable();
        names.dedup();
        for e in [1, 3] {
            let cfg = CompletionConfig::with_e(e);
            let mut on = Completer::with_config(schema, cfg.clone());
            assert!(on.attach_index(Arc::clone(&eager)));
            let mut lz = Completer::with_config(schema, cfg);
            assert!(lz.attach_index(Arc::clone(&lazy)));
            for class in schema.classes().filter(|&c| !schema.is_primitive(c)) {
                for name in &names {
                    let expr = format!("{}~{name}", schema.class_name(class));
                    let ast = parse_path_expression(&expr).unwrap();
                    let a = on.complete_with_stats(&ast).unwrap();
                    let b = lz.complete_with_stats(&ast).unwrap();
                    assert_eq!(a.completions, b.completions, "e={e} {expr}");
                    assert_eq!(a.stats, b.stats, "e={e} {expr}");
                }
            }
        }
        assert_eq!(lazy.goal_count(), eager.goal_count());
        for name in &names {
            let sym = schema.symbol(name).unwrap();
            assert_eq!(lazy.goal_if_built(sym), eager.goal_if_built(sym), "{name}");
        }

        // A class name that no relationship carries: no table either way,
        // and both engines refuse the query alike.
        let uncarried = schema
            .classes()
            .filter_map(|c| schema.symbol(schema.class_name(c)))
            .find(|&s| schema.rels_named(s).is_empty())
            .expect("some class name is carried by no relationship");
        assert!(eager.goal(schema, uncarried).is_none());
        assert!(lazy.goal(schema, uncarried).is_none());
        assert_eq!(lazy.goal_count(), eager.goal_count());
        let root = schema.classes().find(|&c| !schema.is_primitive(c)).unwrap();
        let expr = format!("{}~{}", schema.class_name(root), schema.name(uncarried));
        let ast = parse_path_expression(&expr).unwrap();
        let mut on = Completer::new(schema);
        assert!(on.attach_index(Arc::clone(&eager)));
        let mut lz = Completer::new(schema);
        assert!(lz.attach_index(Arc::clone(&lazy)));
        assert_eq!(
            on.complete(&ast).unwrap_err().to_string(),
            lz.complete(&ast).unwrap_err().to_string(),
            "{expr}"
        );
    }
}

#[test]
fn stale_index_is_rejected_by_attach() {
    let schema = fixtures::university();
    let other = generate_schema(&small_gen(7)).schema;
    let stale: SearchIndex = Arc::new(IndexedSchema::build(&other, IndexMode::Off));
    let mut engine = Completer::new(&schema);
    assert!(!engine.attach_index(stale));
    assert!(engine.index().is_none());
}

#[test]
fn indexed_and_unindexed_agree_on_generated_schemas() {
    for seed in 0..4u64 {
        let gen = generate_schema(&small_gen(seed));
        let schema = &gen.schema;
        let index: SearchIndex = Arc::new(IndexedSchema::build(schema, IndexMode::Lazy));
        let workload = generate_workload(
            &gen,
            &WorkloadConfig {
                queries: 6,
                seed: seed + 100,
                ..Default::default()
            },
        );
        for pruning in [Pruning::Safe, Pruning::Paper] {
            for e in [1usize, 2] {
                let cfg = CompletionConfig {
                    e,
                    pruning,
                    ..Default::default()
                };
                let plain = Completer::with_config(schema, cfg.clone());
                let mut indexed = Completer::with_config(schema, cfg);
                assert!(indexed.attach_index(Arc::clone(&index)));
                let (mut plain_calls, mut indexed_calls) = (0u64, 0u64);
                for q in &workload {
                    let ast = q.ast();
                    let a = plain.complete_with_stats(&ast).unwrap();
                    let b = indexed.complete_with_stats(&ast).unwrap();
                    let texts = |out: &[ipe_core::Completion]| -> Vec<String> {
                        out.iter().map(|c| c.display(schema).to_string()).collect()
                    };
                    assert_eq!(
                        texts(&a.completions),
                        texts(&b.completions),
                        "seed={seed} pruning={pruning:?} e={e} {}",
                        q.expr
                    );
                    plain_calls += a.stats.calls;
                    indexed_calls += b.stats.calls;
                }
                assert!(
                    indexed_calls <= plain_calls,
                    "index-guided search expanded more nodes overall \
                     ({indexed_calls} vs {plain_calls}) seed={seed} \
                     pruning={pruning:?} e={e}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every completion the exhaustive oracle enumerates respects the
    /// index's lower bounds, at the root and at every interior prefix.
    /// Admissibility is exactly the property the engine's index prunes
    /// rely on.
    #[test]
    fn index_bounds_are_admissible(seed in 0u64..512) {
        let gen = generate_schema(&small_gen(seed));
        let schema = &gen.schema;
        let index = IndexedSchema::build(schema, IndexMode::Off);
        let cfg = CompletionConfig {
            max_depth: 8,
            ..Default::default()
        };
        let workload = generate_workload(
            &gen,
            &WorkloadConfig { queries: 4, seed: seed ^ 0x9e37, ..Default::default() },
        );
        for q in &workload {
            let root = schema.class_named(&q.root).unwrap();
            let Some(name) = schema.symbol(&q.target) else { continue };
            let Some(goal) = index.goal(schema, name) else { continue };
            let all = exhaustive::all_consistent(schema, root, &q.target, &cfg).unwrap();
            for c in &all {
                let full_rank = rank(c.label.connector);
                let full_semlen = c.label.semlen;
                let r0 = goal.best_rank_from(None, root).unwrap();
                prop_assert!(r0 <= full_rank, "root rank bound {r0} > {full_rank}");
                let s0 = goal.best_semlen_from(0, None, root).unwrap();
                prop_assert!(s0 <= full_semlen, "root semlen bound {s0} > {full_semlen}");

                let mut l = Label::IDENTITY;
                for (i, &eid) in c.edges.iter().enumerate() {
                    let rel = schema.rel(eid);
                    l = l.extend(rel.kind);
                    let at = rel.target;
                    if i + 1 < c.edges.len() {
                        // The suffix completes the path from `at`, so the
                        // goal-composed bounds must stay below the full
                        // label.
                        let rh = goal.best_rank_from(Some(l.connector), at).unwrap();
                        prop_assert!(
                            rh <= full_rank,
                            "goal rank bound {rh} > {full_rank} at edge {i} of {}",
                            q.expr
                        );
                        let sh = goal.best_semlen_from(l.semlen, l.last, at).unwrap();
                        prop_assert!(
                            sh <= full_semlen,
                            "goal semlen bound {sh} > {full_semlen} at edge {i} of {}",
                            q.expr
                        );
                    }
                }
            }
        }
    }

    /// Index-guided completion equals unindexed completion on random
    /// schemas and queries, for the default configuration.
    #[test]
    fn indexed_search_is_equivalent(seed in 0u64..512) {
        let gen = generate_schema(&small_gen(seed));
        let schema = &gen.schema;
        let index: SearchIndex = Arc::new(IndexedSchema::build(schema, IndexMode::On));
        let workload = generate_workload(
            &gen,
            &WorkloadConfig { queries: 4, seed: seed.wrapping_mul(31) + 5, ..Default::default() },
        );
        let plain = Completer::new(schema);
        let mut indexed = Completer::new(schema);
        prop_assert!(indexed.attach_index(Arc::clone(&index)));
        for q in &workload {
            prop_assert_eq!(
                displays(schema, &plain, &q.expr),
                displays(schema, &indexed, &q.expr),
                "seed={} {}", seed, q.expr
            );
        }
    }
}

/// A schema on which Safe pruning's old `best[u]` cut lost answers under
/// the index's best-bound-first successor order: an 8-class generated
/// schema plus one extra association `c5 → c1`. Indexed search answered
/// `c1~c5` at `E = 1` with no completions where the oracle finds 16.
#[test]
fn safe_search_is_order_independent_on_churn_schema() {
    let gen = generate_schema(&GenConfig {
        classes: 8,
        hub_degree: 6,
        seed: 8097398108759002633,
        ..GenConfig::default()
    });
    let mut doc = SchemaDoc::from_schema(&gen.schema);
    let mut link = doc.rels[0].clone();
    link.source = "c5".to_owned();
    link.target = "c1".to_owned();
    link.kind = RelKind::Assoc;
    link.name = "churn_link".to_owned();
    link.inverse_name = Some("churn_link_of".to_owned());
    doc.rels.push(link);
    let schema = Schema::from_json(&serde_json::to_string(&doc).unwrap()).unwrap();
    let index: SearchIndex = Arc::new(IndexedSchema::build(&schema, IndexMode::On));
    let root = schema.class_named("c1").unwrap();
    for e in 1..=3 {
        let cfg = CompletionConfig {
            e,
            ..Default::default()
        };
        assert_eq!(cfg.pruning, Pruning::Safe);
        let plain = Completer::with_config(&schema, cfg.clone());
        let mut indexed = Completer::with_config(&schema, cfg.clone());
        assert!(indexed.attach_index(Arc::clone(&index)));
        let oracle = exhaustive::optimal_via_enumeration(&schema, root, "c5", &cfg).unwrap();
        let want: Vec<String> = oracle
            .completions
            .iter()
            .map(|c| c.display(&schema).to_string())
            .collect();
        assert!(!want.is_empty(), "e={e}");
        assert_eq!(
            displays(&schema, &plain, "c1~c5"),
            Ok(want.clone()),
            "e={e}"
        );
        assert_eq!(displays(&schema, &indexed, "c1~c5"), Ok(want), "e={e}");
    }
}

/// The texts of `expr`'s completions under `engine`.
fn texts_of(schema: &Schema, engine: &Completer, expr: &str) -> Vec<String> {
    displays(schema, engine, expr).unwrap_or_else(|e| vec![format!("error: {e}")])
}

/// Lazy-indexed Safe equals unindexed Safe on CUPID-calibrated schemas, at
/// every `E` from 1 to 5, with and without the hubs excluded. These are the
/// service's searches: long enough that the incumbent probe runs, several
/// times in the longer ones. Four threads then run the same searches at
/// once over one lazy index, each in its own order, so the goal-table
/// cache is filled concurrently.
#[test]
fn lazy_indexed_safe_equals_unindexed_safe_on_cupid_fleets() {
    for seed in [1994u64, 7] {
        let gen = ipe_gen::cupid_like(seed);
        let schema = &gen.schema;
        let workload = generate_workload(
            &gen,
            &WorkloadConfig {
                queries: 6,
                seed: seed + 1,
                ..Default::default()
            },
        );
        let configs: Vec<CompletionConfig> = (1..=5)
            .flat_map(|e| {
                [Vec::new(), gen.hubs.clone()].map(|excluded_classes| CompletionConfig {
                    e,
                    excluded_classes,
                    ..Default::default()
                })
            })
            .collect();
        let mut want = Vec::new();
        let mut probed = 0;
        for cfg in &configs {
            let plain = Completer::with_config(schema, cfg.clone());
            for q in &workload {
                want.push(texts_of(schema, &plain, &q.expr));
            }
        }
        let lazy: SearchIndex = Arc::new(IndexedSchema::build(schema, IndexMode::Lazy));
        let mut at = 0;
        for cfg in &configs {
            let mut indexed = Completer::with_config(schema, cfg.clone());
            assert!(indexed.attach_index(Arc::clone(&lazy)));
            for q in &workload {
                let out = indexed.complete_with_stats(&q.ast()).unwrap();
                probed += usize::from(out.stats.calls > 128);
                let got: Vec<String> = out
                    .completions
                    .iter()
                    .map(|c| c.display(schema).to_string())
                    .collect();
                assert_eq!(got, want[at], "seed={seed} e={} {}", cfg.e, q.expr);
                at += 1;
            }
        }
        assert!(probed > 0, "no search ran long enough to probe");

        let shared: SearchIndex = Arc::new(IndexedSchema::build(schema, IndexMode::Lazy));
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let (shared, configs, workload, want) = (&shared, &configs, &workload, &want);
                scope.spawn(move || {
                    let n = configs.len() * workload.len();
                    for k in 0..n {
                        let at = (k * 7 + t * 13) % n;
                        let cfg = &configs[at / workload.len()];
                        let q = &workload[at % workload.len()];
                        let mut indexed = Completer::with_config(schema, cfg.clone());
                        assert!(indexed.attach_index(Arc::clone(shared)));
                        assert_eq!(texts_of(schema, &indexed, &q.expr), want[at], "{}", q.expr);
                    }
                });
            }
        });
    }
}

/// Adds an `Isa` edge from every class that already has a superclass to a
/// class without one, so the schema has multiple inheritance. The new
/// superclass has no `Isa` out-edge, so no `Isa` cycle can form.
fn with_second_superclasses(schema: &Schema, seed: u64) -> Schema {
    let roots: Vec<_> = schema
        .classes()
        .filter(|&c| !schema.is_primitive(c) && schema.isa_parents(c).next().is_none())
        .collect();
    let mut doc = SchemaDoc::from_schema(schema);
    for (k, class) in schema.classes().enumerate() {
        let parents: Vec<_> = schema.isa_parents(class).map(|(_, p)| p).collect();
        if parents.is_empty() {
            continue;
        }
        let pick = (seed ^ k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        let sup = roots[pick as usize % roots.len()];
        if parents.contains(&sup) {
            continue;
        }
        let mut isa = doc.rels[0].clone();
        isa.source = schema.class_name(class).to_owned();
        isa.target = schema.class_name(sup).to_owned();
        isa.kind = RelKind::Isa;
        isa.name = format!("mi_sup{k}");
        isa.inverse_name = Some(format!("mi_sub{k}"));
        doc.rels.push(isa);
    }
    let schema = doc.into_schema().expect("a second superclass is valid");
    assert!(
        schema.classes().any(|c| schema.isa_parents(c).count() > 1),
        "the schema has multiple inheritance"
    );
    schema
}

/// Lazy-indexed Safe equals the exhaustive oracle on small generated DAGs
/// with multiple inheritance: every anchor, every relationship name, and
/// `E` up to 3.
#[test]
fn lazy_indexed_safe_matches_the_oracle_with_multiple_inheritance() {
    let mut probed = 0;
    for seed in 0..3u64 {
        let gen = generate_schema(&GenConfig {
            classes: 14,
            tree_roots: 2,
            assoc_edges: 3,
            hubs: 1,
            hub_degree: 4,
            seed,
            ..GenConfig::default()
        });
        let schema = with_second_superclasses(&gen.schema, seed);
        let lazy: SearchIndex = Arc::new(IndexedSchema::build(&schema, IndexMode::Lazy));
        let mut names: Vec<&str> = schema
            .rels()
            .map(|r| schema.name(schema.rel(r).name))
            .collect();
        names.sort_unstable();
        names.dedup();
        for e in 1..=3 {
            let cfg = CompletionConfig {
                e,
                ..Default::default()
            };
            let mut indexed = Completer::with_config(&schema, cfg.clone());
            assert!(indexed.attach_index(Arc::clone(&lazy)));
            for class in schema.classes().filter(|&c| !schema.is_primitive(c)) {
                for &name in &names {
                    let expr = format!("{}~{name}", schema.class_name(class));
                    let ast = parse_path_expression(&expr).unwrap();
                    let out = indexed.complete_with_stats(&ast).unwrap();
                    probed += usize::from(out.stats.calls > 128);
                    let want = exhaustive::optimal_via_enumeration(&schema, class, name, &cfg)
                        .unwrap()
                        .completions;
                    assert_eq!(out.completions, want, "seed={seed} e={e} {expr}");
                }
            }
        }
    }
    assert!(probed > 0, "no search ran long enough to probe");
}
