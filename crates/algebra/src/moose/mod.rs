//! The paper's own path algebra, named after the Moose data model it was
//! designed for (Section 5 of the paper).
//!
//! * [`RelKind`] — the five primary relationship kinds of Section 2.1;
//! * [`Connector`] — the closed connector alphabet `Σ = Σ' ∪ Σ''` of
//!   Section 3.3.1, i.e. the primary connectors plus the secondary
//!   (`Shares-SubParts-With`, `Shares-SuperParts-With`,
//!   `Is-Indirectly-Associated-With`) and `Possibly` connectors;
//! * [`compose`] — the `CON_c` function (paper Table 1);
//! * [`rank`]/[`better`] — the *better-than* partial order `≺`
//!   (paper Figure 3, reconstructed; see DESIGN.md §2);
//! * [`Label`] — a path label: connector, semantic length, and the reduced
//!   first/last edge kinds needed to keep CON associative (footnote 3);
//! * [`agg_star`] — the `AGG*` generalization with the `E` parameter
//!   (Section 4.4);
//! * [`caution_connectors`]/[`in_caution_set`] — caution sets (Section 4.1);
//! * [`MooseAlgebra`] — the [`crate::PathAlgebra`] instance tying it
//!   together.

mod agg;
mod algebra;
mod con;
mod connector;
mod label;

pub use agg::{
    agg_star, agg_star_into, at_least_distinct, better, dominates, incomparable, rank,
    survives_agg_star,
};
pub use algebra::MooseAlgebra;
pub use con::{caution_connectors, compose, in_caution_set};
pub use connector::{Base, Connector, RelKind};
pub use label::{junction_adjust, semantic_length_of_kinds, Label};
