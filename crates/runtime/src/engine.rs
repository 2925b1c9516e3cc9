//! The threaded engine: asynchronous components over bounded channels.
//!
//! Every component instance (chain of boxes and filters, synchrocell)
//! and every piece of combinator glue (parallel dispatcher, star tap,
//! index dispatcher) runs as its own thread, connected by bounded
//! [`std::sync::mpsc`] channels. This is a direct rendering of the
//! paper's execution model (§III): components are "asynchronously
//! executed, stateless stream-processing components"; merging of
//! parallel branches is nondeterministic in arrival order; serial
//! replication unrolls lazily "into copies of its operand"; bounded
//! channels provide the throttling the coordination layer is responsible
//! for.
//!
//! This module is only the transport: a port is a [`SyncSender`],
//! spawning a component is spawning a thread that owns the
//! [`Receiver`] and feeds it through the shared component step, one
//! blocking `send` per record downstream. End-of-stream is channel
//! disconnection: a component terminates when its input disconnects,
//! and closes its outputs by dropping their senders. The merge side of `|` and `!`
//! finishes when *all* clones of the output sender have been dropped,
//! which happens exactly when every branch has terminated.

use crate::component::{build, Component, Transport};
use crate::config::{EngineConfig, Plan};
use crate::handle::{Handle, Ingress, TrySendError};
use crate::run::{DeadDest, Run};
use crate::{Engine, RunReport};
use parking_lot::Mutex;
use snet_core::{Record, SnetError};
use std::sync::mpsc::{self, sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The threaded engine (see [`crate::Net`]). It keeps nothing between
/// runs: every run spawns, and `finish` joins, its own threads.
pub struct Threaded;

/// What the component threads of one run share.
struct Threads {
    run: Arc<Run>,
    config: EngineConfig,
    /// Every thread spawned for the run so far (star and split
    /// replicas add theirs while it runs), joined by `finish`.
    handles: Mutex<Vec<JoinHandle<()>>>,
}

/// One thread's end of the transport.
struct Wire {
    threads: Arc<Threads>,
    /// Set when a send found its channel disconnected: downstream tore
    /// down (an error was recorded elsewhere) and the component should
    /// stop.
    disconnected: bool,
}

impl Wire {
    fn new(threads: &Arc<Threads>) -> Wire {
        Wire {
            threads: Arc::clone(threads),
            disconnected: false,
        }
    }
}

impl Transport for Wire {
    type Port = SyncSender<Record>;

    fn spawn(&mut self, comp: Component<SyncSender<Record>>) -> SyncSender<Record> {
        let (tx, rx) = sync_channel(self.threads.config.channel_capacity.max(1));
        let threads = Arc::clone(&self.threads);
        let handle = std::thread::Builder::new()
            .name(format!("snet-{}", comp.label()))
            .spawn(move || run_component(comp, rx, threads))
            .expect("thread spawn");
        self.threads.handles.lock().push(handle);
        tx
    }

    fn another(port: &SyncSender<Record>) -> SyncSender<Record> {
        port.clone()
    }

    fn send(&mut self, port: &mut SyncSender<Record>, rec: Record) {
        self.disconnected |= port.send(rec).is_err();
    }
}

/// A component thread's body: step every input record until the input
/// disconnects, the run aborts, or downstream is gone.
fn run_component(
    mut comp: Component<SyncSender<Record>>,
    input: Receiver<Record>,
    threads: Arc<Threads>,
) {
    let run = &threads.run;
    let mut wire = Wire::new(&threads);
    for rec in input {
        if run.should_stop() {
            break;
        }
        if let Err(e) = comp.step(rec, run, &threads.config, &mut wire) {
            run.fail(e);
            break;
        }
        if wire.disconnected {
            break;
        }
    }
    // Dropping a sender is closing it.
    comp.end_of_stream(run, drop);
}

impl Engine for Threaded {
    type Ingress = ChannelIngress;
    const NAME: &'static str = "threaded";

    fn new(_config: &EngineConfig) -> Threaded {
        Threaded
    }

    fn start(&self, plan: &Plan) -> Handle<ChannelIngress> {
        let (dead_tx, dead_rx) = sync_channel(plan.dead_capacity());
        let run = plan.new_run(DeadDest::Stream(dead_tx));
        let threads = Arc::new(Threads {
            run: Arc::clone(&run),
            config: plan.config,
            handles: Mutex::new(Vec::new()),
        });
        let (out_tx, out_rx) = sync_channel(plan.config.channel_capacity.max(1));
        // The first component's bounded input channel is the ingress.
        let entry = build(&plan.root, out_tx, &run, &mut Wire::new(&threads));
        Handle {
            ingress: ChannelIngress {
                input: Mutex::new(Some(entry)),
                threads,
            },
            output: Mutex::new(out_rx),
            dead: Mutex::new(dead_rx),
            run,
        }
    }

    fn run_batch_report(&self, plan: &Plan, records: Vec<Record>) -> Result<RunReport, SnetError> {
        plan.check()?;
        let handle = self.start(plan);
        let (outputs, dead_letters) = handle.feed_and_drain(records);
        let trace = handle.trace_arc();
        handle.finish()?;
        Ok(RunReport {
            outputs,
            dead_letters,
            trace,
        })
    }
}

/// The threaded engine's ingress: the bounded entry channel itself.
pub struct ChannelIngress {
    input: Mutex<Option<SyncSender<Record>>>,
    threads: Arc<Threads>,
}

impl ChannelIngress {
    /// A clone of the entry sender, if the input is still open. Cloned
    /// out of the `input` mutex so no caller ever blocks while holding
    /// it — a `send` stalled on channel backpressure must not lock out
    /// `try_send` (documented non-blocking) or `close`. The clone keeps
    /// the channel connected for the duration of an in-flight send that
    /// races `close`, which matches "close applies after
    /// already-submitted sends".
    fn entry(&self) -> Result<SyncSender<Record>, SnetError> {
        let entry = self.input.lock().clone();
        entry.ok_or_else(|| SnetError::Engine("input already closed".into()))
    }

    fn disconnected(&self) -> SnetError {
        self.threads.run.current_error("input channel disconnected")
    }
}

impl Ingress for ChannelIngress {
    const POLL_INTERVAL: Duration = Duration::from_millis(50);

    fn send(&self, rec: Record) -> Result<(), SnetError> {
        self.entry()?.send(rec).map_err(|_| self.disconnected())
    }

    fn try_send(&self, rec: Record) -> Result<(), TrySendError> {
        match self.entry().map_err(TrySendError::Closed)?.try_send(rec) {
            Ok(()) => Ok(()),
            Err(mpsc::TrySendError::Full(rec)) => Err(TrySendError::Full(rec)),
            Err(mpsc::TrySendError::Disconnected(_)) => {
                Err(TrySendError::Closed(self.disconnected()))
            }
        }
    }

    fn send_all(&self, records: Vec<Record>) -> Result<(), SnetError> {
        let entry = self.entry()?;
        for rec in records {
            entry.send(rec).map_err(|_| self.disconnected())?;
        }
        Ok(())
    }

    fn close(&self) {
        *self.input.lock() = None;
    }

    fn join(&self) {
        loop {
            // Popped one at a time: a thread still running may yet
            // unfold a replica and push its handle.
            let handle = self.threads.handles.lock().pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::suite::{int_box, ints};
    use crate::{EngineConfig, Net};
    use snet_core::{NetSpec, Record, Value};

    crate::suite::engine_suite!(crate::engine::Threaded);

    #[test]
    fn shared_plan_serves_concurrent_jobs() {
        crate::suite::concurrent_jobs::<crate::engine::Threaded>();
    }

    /// A component thread is named for what runs on it.
    #[test]
    fn threads_are_named_for_what_is_in_the_chain() {
        use snet_core::boxdef::{BoxDef, BoxOutput, BoxSig, Work};
        use std::sync::{Arc, Mutex};

        let names = Arc::new(Mutex::new(Vec::new()));
        let probe = |name: &str| {
            let names = Arc::clone(&names);
            NetSpec::Box(BoxDef::from_fn(
                BoxSig::parse(name, &["x"], &[&["x"]]),
                move |r| {
                    let thread = std::thread::current().name().map(str::to_owned);
                    names.lock().unwrap().push(thread);
                    Ok(BoxOutput::one(r.clone(), Work::ZERO))
                },
            ))
        };
        let one = vec![Record::new().with_field("x", Value::Int(1))];
        Net::new(probe("solo")).run_batch(one.clone()).unwrap();
        let run = NetSpec::pipeline([probe("head"), NetSpec::identity(), probe("tail")]);
        Net::new(run).run_batch(one).unwrap();
        let name = |s: &str| Some(s.to_owned());
        assert_eq!(
            *names.lock().unwrap(),
            [
                name("snet-box-solo"),
                name("snet-chain3-box-head..box-tail"),
                name("snet-chain3-box-head..box-tail"),
            ]
        );
    }

    /// A tap that runs its body's leading chain is named for it too.
    #[test]
    fn star_taps_are_named_for_the_chain_they_run() {
        use snet_core::boxdef::{BoxDef, BoxOutput, BoxSig, Work};
        use snet_core::filter::OutputTemplate;
        use snet_core::{BinOp, FilterSpec, Pattern, TagExpr, Variant};
        use std::sync::{Arc, Mutex};

        let names = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&names);
        let inc = NetSpec::Box(BoxDef::from_fn(
            BoxSig::parse("inc", &["x"], &[&["x"]]),
            move |r| {
                let thread = std::thread::current().name().map(str::to_owned);
                seen.lock().unwrap().push(thread);
                Ok(BoxOutput::one(r.clone(), Work::ZERO))
            },
        ));
        let dec = NetSpec::Filter(FilterSpec::new(
            Pattern::from_variant(Variant::parse_labels(&[], &["n"])),
            vec![OutputTemplate::empty().set_tag(
                "n",
                TagExpr::bin(BinOp::Sub, TagExpr::tag("n"), TagExpr::Const(1)),
            )],
        ));
        let exit = Pattern::guarded(
            Variant::empty(),
            TagExpr::bin(BinOp::Eq, TagExpr::tag("n"), TagExpr::Const(0)),
        );
        let star = NetSpec::star(NetSpec::serial(dec, inc), exit);
        let one = vec![Record::new()
            .with_field("x", Value::Int(1))
            .with_tag("n", 2)];
        for fuse in [true, false] {
            let config = EngineConfig {
                fuse,
                ..EngineConfig::default()
            };
            Net::with_config(star.clone(), config)
                .run_batch(one.clone())
                .unwrap();
        }
        let name = |s: &str| Some(s.to_owned());
        assert_eq!(
            *names.lock().unwrap(),
            [
                name("snet-star-tap+chain2-filter..box-inc"),
                name("snet-star-tap+chain2-filter..box-inc"),
                name("snet-box-inc"),
                name("snet-box-inc"),
            ]
        );
    }

    #[test]
    fn deep_pipeline_respects_backpressure() {
        // Tiny channels + many records: exercises the bounded-channel
        // path without deadlocking.
        let stages: Vec<NetSpec> = (0..8)
            .map(|_| int_box("inc", "x", "x", |x| x + 1))
            .collect();
        let net = Net::with_config(
            NetSpec::pipeline(stages),
            EngineConfig {
                channel_capacity: 1,
                ..EngineConfig::default()
            },
        );
        let outs = net
            .run_batch(
                (0..200)
                    .map(|i| Record::new().with_field("x", Value::Int(i)))
                    .collect(),
            )
            .unwrap();
        assert_eq!(outs.len(), 200);
        assert_eq!(ints(&outs, "x"), (8..208).collect::<Vec<_>>());
    }
}
