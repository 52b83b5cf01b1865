//! # lis-online — the online attack plane
//!
//! Everything before this crate poisons a keyset *offline*: run Algorithm
//! 1 or 2, rebuild the index, measure. This crate closes the loop the
//! paper's threat model actually describes — an adversary who can only
//! *submit writes* to a running system:
//!
//! * [`campaign`] — [`Campaign`] turns the Algorithm-2 plan (per-model
//!   volume allocation from `lis_poison::rmi_attack`) into a live write
//!   stream: each poison insert is chosen against the currently-served
//!   keyset with the O(1)-update [`IncrementalOracle`]
//!   (no rebuilds on the attacker's side), submitted through the same
//!   [`ServerHandle`](lis_server::ServerHandle) as benign traffic, and
//!   the campaign *adapts* when admission control rejects a key;
//! * [`harness`] — [`run_online`] plays matched scenarios (benign
//!   baseline, undefended campaign, admission-defended campaigns) against
//!   the epoch-swapped write plane of `lis_server`, scoring serving drift
//!   (mean lookup cost after vs. before the campaign), defense recall,
//!   and benign collateral, with the windowed time series from
//!   [`ServeReport`](lis_server::ServeReport) — the data behind
//!   `lis-cli serve-online`'s JSON report.
//!
//! [`IncrementalOracle`]: lis_poison::IncrementalOracle

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod harness;

pub use campaign::{run_campaign, Campaign, CampaignConfig};
pub use harness::{run_online, OnlineConfig, OnlineReport, ScenarioReport};
