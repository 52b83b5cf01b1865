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
//! * [`run_campaign`] streams a campaign through a server handle, a
//!   window of writes in flight at a time.
//!
//! The scenarios that score a campaign against the live server — benign
//! churn, undefended, and admission-defended, measured on serving drift,
//! defense recall and benign collateral — are rungs of the umbrella
//! crate's scenario ladder (`lis::chaos`, `lis-cli chaos`).
//!
//! [`IncrementalOracle`]: lis_poison::IncrementalOracle

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaign;

pub use campaign::{run_campaign, Campaign, CampaignConfig};
