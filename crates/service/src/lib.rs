//! # ghs-service
//!
//! The batched job-service layer of the workspace: a config-driven API that
//! turns the per-execution engines (fusion, grouped expectations, adjoint
//! gradients, batched sampling) into a **throughput** system that amortizes
//! work *across* jobs.
//!
//! Submit a typed [`JobSpec`] — a concrete circuit or a parameterized
//! template plus bindings, an observable / shot count / gradient request, a
//! backend description and a seed — and redeem the returned ticket for a
//! typed [`JobResult`]. Behind the API:
//!
//! * a **structural artifact cache** keyed on backend and angle-invariant
//!   circuit topology ([`ghs_circuit::StructuralKey`]) holding each
//!   backend's prepared values (fusion plans, sharded layouts, tableaus),
//!   prepared observables and sampling distributions, so repeated
//!   topologies skip planning and preparation entirely ([`cache`]);
//! * a **work-stealing multi-queue executor**: persistent workers pulling
//!   from per-submitter lanes round-robin, each job running through its
//!   backend's own prepare/execute path with the cached prepared value
//!   ([`service`]);
//! * **backpressure and fairness knobs** — bounded queue, in-flight window,
//!   per-submitter round-robin — with results that are a pure function of
//!   each job's spec and seed, bit-identical across worker counts
//!   ([`queue`], [`ServiceConfig`]).

#![warn(missing_docs)]

pub mod cache;
pub mod job;
pub mod queue;
pub mod service;

pub use cache::CacheStats;
pub use job::{CircuitSource, JobId, JobOutput, JobRequest, JobResult, JobSpec, SubmitError};
pub use queue::FairQueue;
pub use service::{Service, ServiceConfig};
