//! # lis-workloads — key-set generators for learned-index experiments
//!
//! Reproducible workloads for every experiment in the paper:
//!
//! * [`synthetic`] — uniform (Figs. 4–6), normal (Fig. 8), and log-normal
//!   (Fig. 6) keysets with exact `(keys, density)` parameterization;
//! * [`realsim`] — simulated stand-ins for the Miami-Dade salary and OSM
//!   school-latitude datasets of Figure 7, calibrated to the published
//!   n / key range / density / shape (see `DESIGN.md` for the substitution
//!   rationale);
//! * [`rng`] — deterministic per-trial RNG derivation and from-scratch
//!   normal / log-normal samplers;
//! * [`export`] — aligned console tables for reports and CLI output.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod export;
pub mod queries;
pub mod realsim;
pub mod rng;
pub mod synthetic;

pub use export::ResultTable;
pub use queries::{member_queries, mixed_queries, QuerySkew};
pub use rng::{trial_rng, DEFAULT_SEED};
pub use synthetic::{domain_for_density, lognormal_keys, normal_keys, uniform_keys};
