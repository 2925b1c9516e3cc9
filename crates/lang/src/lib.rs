//! # snet-lang — the S-Net textual language
//!
//! A hand-written front end for the S-Net coordination language as used
//! in the paper (§III, §IV): box signature declarations, named subnets
//! (`net … { … } connect …`), filters, synchrocells, the four network
//! combinators and the Distributed S-Net placement combinators.
//!
//! Modules: [`lexer`] → [`token`]s → [`parser`] → [`ast`] →
//! [`compile`](mod@compile) (against a [`registry`] of box
//! implementations) → `snet_core::NetSpec`. The way back to source is
//! `snet-core`'s: each of its types' `Display` is the concrete syntax,
//! and [`printer`] adds the box declarations and the `connect` line
//! that make a whole program. Static checking of the compiled topology
//! is not done here: `snet-analyze` is the one checker.
//!
//! ```
//! use snet_lang::{compile, BoxRegistry};
//! use snet_core::{BoxOutput, Record, Value, Work};
//!
//! let src = r#"
//!     net double {
//!         box dbl ((x) -> (y));
//!     } connect dbl .. [ {y} -> {x = y} ]
//! "#;
//! let mut reg = BoxRegistry::new();
//! reg.register("dbl", |r: &Record| {
//!     let x = r.field("x").and_then(|v| v.as_int()).unwrap_or(0);
//!     Ok(BoxOutput::one(Record::new().with_field("x", Value::Int(2 * x)), Work::ZERO))
//! });
//! let net = compile(src, &reg).expect("compiles");
//! assert_eq!(net.component_count(), 2);
//! ```

pub mod ast;
pub mod compile;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod registry;
pub mod token;

pub use compile::{compile, compile_ast};
pub use parser::parse;
pub use printer::{expr_source, extract_registry, to_source};
pub use registry::BoxRegistry;
