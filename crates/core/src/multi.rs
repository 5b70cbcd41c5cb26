//! The general case: path expressions with interior or multiple `~`
//! connectors (treated in the thesis the paper cites as [17]).
//!
//! Each `~` segment is completed by an exhaustive (unpruned) segment
//! search, because the Moose algebra is not distributive: a segment-locally
//! sub-optimal sub-path can still participate in a globally optimal
//! completion, so local `AGG*` filtering would be unsound. Acyclicity is
//! enforced across the *whole* expression by threading the `on_path` set
//! through all segments. The final ranking applies `AGG*` and the
//! inheritance criterion globally, exactly as the single-`~` fast path
//! does.

use crate::config::{SearchLimits, LIMIT_CHECK_INTERVAL};
use crate::engine::{Completer, SearchOutcome, SearchStats, SegmentSearch};
use crate::error::CompleteError;
use crate::path::Completion;
use crate::resolve::RStep;
use ipe_algebra::moose::Label;
use ipe_obs::SearchTrace;
use ipe_schema::{ClassId, RelId};

/// Completes an expression with arbitrary `~` placement. Search events are
/// recorded into `trace` (pass a disabled trace for untraced runs).
pub(crate) fn complete_general(
    completer: &Completer<'_>,
    root: ClassId,
    steps: &[RStep],
    trace: &mut SearchTrace,
    limits: &SearchLimits,
) -> Result<SearchOutcome, CompleteError> {
    let schema = completer.schema();
    let mut on_path = vec![false; schema.class_count()];
    on_path[root.index()] = true;
    let mut driver = Driver {
        completer,
        steps,
        root,
        found: Vec::new(),
        stats: SearchStats::default(),
        edges: Vec::new(),
        trace: trace.take(),
        limits,
        ticks: 0,
    };
    let r = {
        let _t = ipe_obs::timer!("core.phase.search");
        driver.advance(root, Label::IDENTITY, 0, &mut on_path)
    };
    *trace = driver.trace.take();
    r?;
    let Driver { found, stats, .. } = driver;
    Ok(completer.finalize_traced(found, stats, trace))
}

struct Driver<'c, 's> {
    completer: &'c Completer<'s>,
    steps: &'c [RStep],
    root: ClassId,
    found: Vec<Completion>,
    stats: SearchStats,
    edges: Vec<RelId>,
    trace: SearchTrace,
    limits: &'c SearchLimits,
    /// `advance` invocations, for the amortized limit poll. Separate from
    /// `stats.calls`, which counts only segment-search node explorations:
    /// the cross-product enumeration between segments can dominate without
    /// ever entering a segment search.
    ticks: u64,
}

impl Driver<'_, '_> {
    fn advance(
        &mut self,
        class: ClassId,
        label: Label,
        step_idx: usize,
        on_path: &mut Vec<bool>,
    ) -> Result<(), CompleteError> {
        let schema = self.completer.schema();
        self.ticks += 1;
        if self.ticks.is_multiple_of(LIMIT_CHECK_INTERVAL) {
            self.limits.check()?;
        }
        if step_idx == self.steps.len() {
            if self.found.len() >= self.completer.config().max_results {
                return Err(CompleteError::TooManyResults {
                    cap: self.completer.config().max_results,
                });
            }
            self.found.push(Completion {
                root: self.root,
                edges: self.edges.clone(),
                label,
            });
            return Ok(());
        }
        match self.steps[step_idx] {
            RStep::Explicit { kind, name } => {
                let rel = schema.out_rel_named(class, name).ok_or_else(|| {
                    CompleteError::UnknownStep {
                        class: schema.class_name(class).to_owned(),
                        name: schema.name(name).to_owned(),
                    }
                })?;
                if rel.kind != kind {
                    return Err(CompleteError::ConnectorMismatch {
                        class: schema.class_name(class).to_owned(),
                        name: schema.name(name).to_owned(),
                        wrote: crate::resolve::connector_of_kind(kind),
                        actual: rel.kind.symbol(),
                    });
                }
                if on_path[rel.target.index()] {
                    // The explicit step would close a cycle under this
                    // particular completion of earlier segments; this
                    // branch simply yields no result.
                    return Ok(());
                }
                on_path[rel.target.index()] = true;
                self.edges.push(rel.id);
                let r = self.advance(rel.target, label.extend(rel.kind), step_idx + 1, on_path);
                self.edges.pop();
                on_path[rel.target.index()] = false;
                r
            }
            RStep::Tilde { name } => {
                // Exhaustive segment search from `class`. The anchor's
                // on_path flag is managed by the segment traversal itself.
                on_path[class.index()] = false;
                let mut seg_span = self.limits.span.child("search.segment");
                seg_span.note(schema.name(name));
                seg_span.attr("step", step_idx as u64);
                let mut search = SegmentSearch::new(self.completer, name, true);
                search.trace = self.trace.take();
                search.limits = self.limits.clone();
                let mut seg_edges = Vec::new();
                let r = if search.anchor_unreachable(class) {
                    Ok(())
                } else {
                    search.traverse(class, label, on_path, &mut seg_edges)
                };
                on_path[class.index()] = true;
                search.stats.publish(&mut seg_span);
                seg_span.finish();
                self.stats.absorb(search.stats);
                self.trace = search.trace.take();
                r?;
                for seg in search.found {
                    // Re-mark the segment's interior nodes while recursing
                    // into the remaining steps.
                    let mut marked = Vec::new();
                    let mut current = class;
                    let mut ok = true;
                    for &e in &seg.edges {
                        let t = schema.rel(e).target;
                        if on_path[t.index()] {
                            ok = false;
                            break;
                        }
                        on_path[t.index()] = true;
                        marked.push(t);
                        current = t;
                    }
                    if ok {
                        let before = self.edges.len();
                        self.edges.extend_from_slice(&seg.edges);
                        let r = self.advance(current, seg.label, step_idx + 1, on_path);
                        self.edges.truncate(before);
                        for m in &marked {
                            on_path[m.index()] = false;
                        }
                        r?;
                    } else {
                        for m in &marked {
                            on_path[m.index()] = false;
                        }
                    }
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CompletionConfig;
    use ipe_parser::parse_path_expression;
    use ipe_schema::fixtures;

    fn texts(schema: &ipe_schema::Schema, out: &[Completion]) -> Vec<String> {
        out.iter().map(|c| c.display(schema).to_string()).collect()
    }

    /// Interior tilde: `university~professor.name` — reach a relationship
    /// named `professor` somehow, then take `.name` explicitly... except
    /// `professor` (the class) has no `name` of its own; it inherits it.
    /// Use `~teach.name` instead: any path to a `teach` relationship, then
    /// the course's name.
    #[test]
    fn interior_tilde_then_explicit() {
        let schema = fixtures::university();
        let engine = Completer::new(&schema);
        let out = engine
            .complete(&parse_path_expression("department~teach.name").unwrap())
            .unwrap();
        let t = texts(&schema, &out);
        // Best completion: department $> professor @> teacher .teach .name
        assert!(
            t.contains(&"department$>professor@>teacher.teach.name".to_string()),
            "{t:?}"
        );
    }

    /// Two tildes: `university~student~name`.
    #[test]
    fn double_tilde() {
        let schema = fixtures::university();
        let engine = Completer::new(&schema);
        let out = engine
            .complete(&parse_path_expression("university~student~name").unwrap())
            .unwrap();
        assert!(!out.is_empty());
        for c in &out {
            // Final edge must be named `name`; some earlier edge `student`.
            let names: Vec<&str> = c.edges.iter().map(|&e| schema.rel_name(e)).collect();
            assert_eq!(*names.last().unwrap(), "name");
            assert!(names.contains(&"student"));
        }
    }

    /// A trailing-tilde expression completed through the general driver
    /// must agree with the fast path.
    #[test]
    fn general_driver_agrees_with_fast_path() {
        let schema = fixtures::university();
        let engine = Completer::new(&schema);
        let ast = parse_path_expression("ta~name").unwrap();
        let (root, steps) = crate::resolve::resolve_ast(&schema, &ast).unwrap();
        let general = complete_general(
            &engine,
            root,
            &steps,
            &mut ipe_obs::SearchTrace::disabled(),
            &SearchLimits::default(),
        )
        .unwrap();
        let fast = engine.complete(&ast).unwrap();
        let mut a = texts(&schema, &general.completions);
        let mut b = texts(&schema, &fast);
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    /// Whole-expression acyclicity: a segment completion may not revisit
    /// classes used by another segment.
    #[test]
    fn acyclicity_across_segments() {
        let schema = fixtures::university();
        let engine = Completer::with_config(&schema, CompletionConfig::with_e(3));
        let out = engine
            .complete(&parse_path_expression("ta~take~name").unwrap())
            .unwrap();
        for c in &out {
            let classes = c.classes(&schema);
            let mut dedup = classes.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(
                dedup.len(),
                classes.len(),
                "cyclic completion {:?}",
                texts(&schema, std::slice::from_ref(c))
            );
        }
    }
}
