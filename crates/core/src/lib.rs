//! # tage — the TAGE conditional branch predictor family
//!
//! A from-scratch implementation of the predictors of *"A New Case for the
//! TAGE Branch Predictor"* (André Seznec, MICRO 2011):
//!
//! * [`Tage`] — the TAGE predictor (§3), itself a composition: a
//!   [`provider::ProviderStack`] of three separately constructible,
//!   separately budgeted sub-stages — a [`base::BaseSlot`] (the bimodal
//!   default prediction, or an ablation base), the [`tagged::TaggedBank`]
//!   (geometric-history tagged components with their u-bit allocation
//!   policy), and a [`chooser::ChooserSlot`] policy (`USE_ALT_ON_NA` by
//!   default) implementing [`simkit::Chooser`];
//! * [`ium::Ium`] — the Immediate Update Mimicker (§5.1);
//! * [`loop_pred::LoopPredictor`] — the loop predictor + speculative
//!   iteration management (§5.2);
//! * [`corrector::Gsc`] / [`corrector::Lsc`] — the global and local
//!   Statistical Correctors (§5.3, §6);
//! * [`stack::PredictorStack`] — the composition machinery: one TAGE
//!   provider plus an *ordered chain* of side stages, evaluated in
//!   declaration order;
//! * [`spec::SystemSpec`] — the declarative, serializable form of a
//!   stack (one-line spec strings with a canonical grammar, typed
//!   [`spec::SpecError`] validation, and the paper's named presets as a
//!   [`spec::PRESETS`] data table);
//! * [`TageSystem`] — alias of the stack, with the paper's named presets:
//!   [`TageSystem::isl_tage`], [`TageSystem::tage_lsc`],
//!   [`TageSystem::full_stack`], and the scaled Figure-9 families.
//!
//! All predictors implement [`simkit::Predictor`], including the §4
//! delayed-update scenarios `[I]/[A]/[B]/[C]` and access accounting with
//! silent-update elimination.
//!
//! # Example
//!
//! Composing a stack declaratively and driving it:
//!
//! ```
//! use simkit::{BranchInfo, Predictor, UpdateScenario};
//! use tage::SystemSpec;
//!
//! let spec: SystemSpec = "tage:lsc+ium+lsc/as=TAGE-LSC".parse().unwrap();
//! let mut p = spec.build().unwrap();
//! let b = BranchInfo::conditional(0x40_0000);
//! let (pred, mut flight) = p.predict(&b);
//! let outcome = true;
//! p.fetch_commit(&b, outcome, &mut flight);
//! p.execute(&b, outcome, &mut flight);
//! p.retire(&b, outcome, pred, flight, UpdateScenario::RereadAtRetire);
//! assert!(p.storage_bits() <= 512 * 1024);
//! ```

#![forbid(unsafe_code)]

pub mod base;
pub mod chooser;
pub mod confidence;
pub mod config;
pub mod corrector;
pub mod ium;
pub mod loop_pred;
pub mod provider;
pub mod spec;
pub mod stack;
pub mod system;
pub mod tage;
pub mod tagged;

pub use base::{BaseChoice, BaseSlot};
pub use chooser::{ChooserChoice, ChooserSlot};
pub use confidence::{classify, Confidence, ConfidenceStats};
pub use config::{TageConfig, MAX_TAGGED};
pub use corrector::{Gsc, Lsc};
pub use ium::Ium;
pub use loop_pred::LoopPredictor;
pub use provider::ProviderStack;
pub use spec::{ProviderSpec, SpecError, StageSpec, SystemSpec, TageBase, PRESETS};
pub use stack::{PredictorStack, SideStage, StackFlight, StageKind};
pub use system::{SystemFlight, TageSystem};
pub use tage::{Tage, TageFlight};
pub use tagged::TaggedBank;
