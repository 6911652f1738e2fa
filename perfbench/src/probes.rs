//! Isolated per-layer probes: calls into one layer's public functions,
//! shaped by the workload (block count, receivers per region, WiFi
//! loss) and timed on their own, so a change to one layer shows in its
//! own number before it shows in the workload's wall time.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use apps::haar::{count_faces_quadrant, Cascade};
use apps::image::{FrameGen, LightColor};
use apps::svm::LinearSvm;
use apps::vision::color_filter;
use dsps::graph::OpId;
use mobistreams::broadcast::{PhaseDecision, ReceiverState, SenderJob};
use mobistreams::msgs::BlobContent;
use simkernel::{impl_actor_any, Actor, ActorId, Ctx, EventBox, Sim, SimRng, SimTime};
use simnet::bitmap::Bitmap;
use simnet::stats::TrafficClass;
use simnet::wifi::{WifiBatchRx, WifiBatchSend, WifiConfig, WifiMedium};

use crate::spans::{Json, Spans};

/// The workload properties the probes are sized by.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// 1 KB blocks of the largest operator checkpoint.
    pub blocks: usize,
    /// Broadcast receivers per region (phones − 1).
    pub receivers: usize,
    /// WiFi block loss the broadcast works against.
    pub loss: f64,
}

/// Repetitions per probe; each probe reports the median.
const REPS: usize = 5;

/// Median of [`REPS`] samples.
fn median(mut sample: impl FnMut() -> f64) -> f64 {
    let mut xs: Vec<f64> = (0..REPS).map(|_| sample()).collect();
    xs.sort_by(f64::total_cmp);
    xs[REPS / 2]
}

/// Median over [`REPS`] repetitions of `f`'s host nanoseconds per
/// operation; `f` returns the operation count of one repetition.
fn median_ns_per_op(mut f: impl FnMut() -> u64) -> f64 {
    median(|| {
        let t = Instant::now();
        let ops = black_box(f());
        t.elapsed().as_nanos() as f64 / ops.max(1) as f64
    })
}

/// A bitmap of `n` blocks with each block received with probability
/// `1 - loss`.
fn lossy_bitmap(n: usize, loss: f64, rng: &mut SimRng) -> Bitmap {
    let mut b = Bitmap::zeros(n);
    for i in 0..n {
        if !rng.chance(loss) {
            b.set(i, true);
        }
    }
    b
}

#[derive(Debug)]
struct Ball(u32);

/// Ping-pong player: returns the ball to its peer until it is spent.
struct Player {
    peer: ActorId,
}

impl Actor for Player {
    fn on_event(&mut self, ev: EventBox, ctx: &mut Ctx) {
        if let Ok(Ball(n)) = ev.downcast::<Ball>() {
            if n > 0 {
                ctx.send(self.peer, Ball(n - 1));
            }
        }
    }

    impl_actor_any!();
}

/// Bare-kernel dispatch: host ns per event of a two-actor ping-pong.
fn dispatch_ns(seed: u64) -> f64 {
    const BOUNCES: u32 = 200_000;
    median_ns_per_op(|| {
        let mut sim = Sim::new(seed);
        sim.disable_sanitizer();
        let a = sim.add_actor(Box::new(Player {
            peer: ActorId::UNSET,
        }));
        let b = sim.add_actor(Box::new(Player { peer: a }));
        sim.actor_mut::<Player>(a).peer = b;
        sim.schedule_at(SimTime::ZERO, a, Ball(BOUNCES));
        sim.run();
        sim.events_processed()
    })
}

/// Counts the blocks a receiver got.
struct BlockSink {
    got: u64,
}

impl Actor for BlockSink {
    fn on_event(&mut self, ev: EventBox, _ctx: &mut Ctx) {
        if let Ok(rx) = ev.downcast::<WifiBatchRx>() {
            self.got += rx.received.count_ones() as u64;
        }
    }

    impl_actor_any!();
}

/// One `WifiMedium` in a bare `Sim`: host ns per (batch, receiver)
/// delivery, and the fraction of block receptions that survived loss.
fn wifi_batch(shape: Shape, seed: u64) -> (f64, f64) {
    let rx = shape.receivers.max(1);
    let batches = (4_000_000 / (rx * shape.blocks.max(1))).max(4) as u64;
    let mut delivered = 0u64;
    let ns = median_ns_per_op(|| {
        let mut sim = Sim::new(seed);
        sim.disable_sanitizer();
        let medium = sim.add_actor(Box::new(WifiMedium::new(WifiConfig {
            loss: shape.loss,
            ..WifiConfig::default()
        })));
        let nodes: Vec<ActorId> = (0..=rx)
            .map(|_| sim.add_actor(Box::new(BlockSink { got: 0 })))
            .collect();
        for &n in &nodes {
            sim.actor_mut::<WifiMedium>(medium).add_member(n);
        }
        let blocks: Arc<[u32]> = (0..shape.blocks as u32).collect();
        for stream in 0..batches {
            sim.schedule_at(
                SimTime::ZERO,
                medium,
                WifiBatchSend {
                    src: nodes[0],
                    class: TrafficClass::Checkpoint,
                    stream,
                    total_blocks: shape.blocks as u32,
                    blocks: Arc::clone(&blocks),
                    payload_bytes: shape.blocks as u64 * 1024,
                    reply_expected: false,
                    tag: 0,
                },
            );
        }
        sim.run();
        delivered = nodes.iter().map(|&n| sim.actor::<BlockSink>(n).got).sum();
        batches * rx as u64
    });
    let offered = batches * rx as u64 * shape.blocks as u64;
    (ns, delivered as f64 / offered as f64)
}

/// `Bitmap::and_assign` and `Bitmap::zero_indices` at the workload's
/// block count.
fn bitmap_ns(shape: Shape, rng: &mut SimRng) -> (f64, f64) {
    let a = lossy_bitmap(shape.blocks, shape.loss, rng);
    let b = lossy_bitmap(shape.blocks, shape.loss, rng);
    let reps = (20_000_000 / shape.blocks.max(1)).max(100) as u64;
    let and = median_ns_per_op(|| {
        let mut x = a.clone();
        for _ in 0..reps {
            x.and_assign(black_box(&b));
        }
        black_box(x.count_ones());
        reps
    });
    let zeros = median_ns_per_op(|| {
        for _ in 0..reps {
            black_box(black_box(&a).zero_indices().len());
        }
        reps
    });
    (and, zeros)
}

fn checkpoint_content() -> BlobContent {
    BlobContent::Checkpoint {
        version: 1,
        states: vec![(OpId(0), Arc::new(()) as dsps::operator::OpState, 0)],
    }
}

/// Broadcast sender: one full multi-phase job (`SenderJob::begin`, then
/// `on_bitmap` per receiver per phase) against iid block loss; host ns
/// per `on_bitmap` call. Reception is sampled outside the timed part.
fn sender_ns_per_rx(shape: Shape, seed: u64) -> f64 {
    let rx: Vec<ActorId> = (0..shape.receivers.max(1))
        .map(ActorId::from_index)
        .collect();
    let total_bytes = shape.blocks as u64 * 1024;
    median(|| {
        let mut rng = SimRng::new(seed);
        let mut job = SenderJob::new(
            1,
            checkpoint_content(),
            TrafficClass::Checkpoint,
            total_bytes,
            1024,
            rx.clone(),
        );
        let t = Instant::now();
        let mut pending = job.begin();
        let mut timed = t.elapsed();
        let mut cum: Vec<Bitmap> = rx.iter().map(|_| Bitmap::zeros(shape.blocks)).collect();
        let mut calls = 0u64;
        'phases: loop {
            for c in cum.iter_mut() {
                for &b in &pending {
                    if !rng.chance(shape.loss) {
                        c.set(b as usize, true);
                    }
                }
            }
            let t = Instant::now();
            for (&id, c) in rx.iter().zip(&cum) {
                calls += 1;
                match job.on_bitmap(id, black_box(c)) {
                    Some(PhaseDecision::Resend(blocks)) => {
                        timed += t.elapsed();
                        pending = blocks;
                        continue 'phases;
                    }
                    Some(_) => break,
                    None => {}
                }
            }
            timed += t.elapsed();
            break;
        }
        timed.as_nanos() as f64 / calls.max(1) as f64
    })
}

/// Broadcast receiver: host ns per `ReceiverState::on_batch` fold of a
/// full-size batch.
fn receiver_ns_per_batch(shape: Shape, rng: &mut SimRng) -> f64 {
    let n = shape.blocks;
    let blocks: Vec<u32> = (0..n as u32).collect();
    let received = lossy_bitmap(n, shape.loss, rng);
    let reps = (4_000_000 / n.max(1)).max(16) as u64;
    median_ns_per_op(|| {
        let mut state = ReceiverState::default();
        for stream in 0..reps {
            let cum = state
                .on_batch(ActorId::from_index(1), stream, n as u32, &blocks, &received)
                .expect("well-formed batch");
            black_box(cum.count_ones());
        }
        reps
    })
}

/// The real app kernels on `FrameGen` frames: one Haar quadrant scan,
/// one colour filter, one SVM training epoch over 256 samples.
fn app_kernels(seed: u64) -> (f64, f64, f64) {
    let mut rng = SimRng::new(seed);
    let faces = FrameGen::default().faces_frame(&mut rng, 0);
    let cascade = Cascade::default();
    let haar = median_ns_per_op(|| {
        for _ in 0..8 {
            for q in 0..4 {
                black_box(count_faces_quadrant(black_box(&faces), &cascade, q));
            }
        }
        32
    });
    let light = FrameGen {
        mean_faces: 0.0,
        ..FrameGen::default()
    }
    .light_frame_at(&mut rng, 0, LightColor::Red, 30, 12);
    let color = median_ns_per_op(|| {
        for _ in 0..64 {
            black_box(color_filter(black_box(&light)));
        }
        64
    });
    let xs: Vec<Vec<f64>> = (0..256)
        .map(|i| {
            let mean = if i % 2 == 0 { 2.0 } else { -2.0 };
            vec![rng.normal(mean, 0.5), rng.f64()]
        })
        .collect();
    let ys: Vec<f64> = (0..256)
        .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    let svm = median_ns_per_op(|| {
        let mut r = SimRng::new(seed);
        for _ in 0..64 {
            let mut m = LinearSvm::new(2, 0.01);
            m.fit(black_box(&xs), &ys, 1, &mut r);
            black_box(m.b);
        }
        64
    });
    (haar, color, svm)
}

type Values = Vec<(&'static str, f64)>;

/// Run one probe inside its own span, appending its values to `out`.
fn probe(
    spans: &mut Spans,
    parent: usize,
    name: &str,
    out: &mut Values,
    f: impl FnOnce() -> Values,
) {
    let id = spans.open(name, Some(parent));
    let vals = f();
    spans.close(
        id,
        vals.iter().fold(Json::default(), |j, &(k, v)| j.num(k, v)),
    );
    out.extend(vals);
}

/// Run every probe, each in a span under `parent`; returns
/// `(metric, value)` pairs.
pub fn run(shape: Shape, seed: u64, spans: &mut Spans, parent: usize) -> Values {
    let mut out = Vec::new();
    let mut rng = SimRng::new(seed ^ 0x0b5e_55ed);
    probe(spans, parent, "simkernel.ping_pong", &mut out, || {
        vec![("simkernel.dispatch_ns", dispatch_ns(seed))]
    });
    probe(spans, parent, "simnet.wifi.batch", &mut out, || {
        let (ns, frac) = wifi_batch(shape, seed);
        vec![
            ("simnet.wifi.batch_ns_per_rx", ns),
            ("simnet.wifi.delivered_frac", frac),
        ]
    });
    probe(spans, parent, "simnet.bitmap", &mut out, || {
        let (and, zeros) = bitmap_ns(shape, &mut rng);
        vec![
            ("simnet.bitmap.and_ns", and),
            ("simnet.bitmap.zero_indices_ns", zeros),
        ]
    });
    probe(spans, parent, "mobistreams.broadcast", &mut out, || {
        vec![
            (
                "mobistreams.broadcast.sender_ns_per_rx",
                sender_ns_per_rx(shape, seed),
            ),
            (
                "mobistreams.broadcast.receiver_ns_per_batch",
                receiver_ns_per_batch(shape, &mut rng),
            ),
        ]
    });
    probe(spans, parent, "apps.kernels", &mut out, || {
        let (haar, color, svm) = app_kernels(seed);
        vec![
            ("apps.haar_quadrant_ns", haar),
            ("apps.color_filter_ns", color),
            ("apps.svm_epoch_ns", svm),
        ]
    });
    out
}
