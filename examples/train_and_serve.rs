//! Train real models, then serve them through Tolerance Tiers: three
//! MLPs of increasing capacity are trained with SGD on a Gaussian
//! mixture, profiled into a matrix, tiered, and finally served *live*
//! on a crossbeam worker pool with genuine concurrent cascades.
//!
//! Run with `cargo run --release -p tt-examples --bin train_and_serve`.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use tt_core::objective::Objective;
use tt_core::policy::{Action, Walk};
use tt_core::profile::{Observation, ProfileMatrixBuilder};
use tt_examples::banner;
use tt_serve::live::WorkerPool;
use tt_vision::train::{MixtureData, MlpClassifier};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    banner("1. Train three model versions (SGD, Gaussian mixture task)");
    let train = MixtureData::synthesize(4_000, 16, 10, 1.15, 1);
    let test = train.resample(2_000, 2);
    let models: Vec<(String, MlpClassifier)> = [(4usize, 6usize), (16, 8), (64, 12)]
        .iter()
        .map(|&(hidden, epochs)| {
            let m = MlpClassifier::train(&train, hidden, epochs, 0.03, 7);
            (format!("mlp-{hidden}"), m)
        })
        .collect();
    for (name, m) in &models {
        println!(
            "  {name}: test accuracy {:.1}%, {} FLOPs/prediction",
            m.accuracy(&test) * 100.0,
            m.flops()
        );
    }

    banner("2. Profile them into a Tolerance Tiers matrix");
    // Latency model: FLOPs at a fixed effective throughput.
    let latency_us = |m: &MlpClassifier| (m.flops() as f64 / 50.0).max(1.0) as u64;
    let mut builder = ProfileMatrixBuilder::new(models.iter().map(|(n, _)| n.clone()).collect());
    for (x, &y) in test.features.iter().zip(&test.labels) {
        let row: Vec<Observation> = models
            .iter()
            .map(|(_, m)| {
                let (pred, conf) = m.predict(x);
                Observation {
                    quality_err: if pred == y { 0.0 } else { 1.0 },
                    latency_us: latency_us(m),
                    cost: latency_us(m) as f64 * 1e-9,
                    confidence: conf,
                }
            })
            .collect();
        builder.push_request(row);
    }
    let matrix = builder.build()?;

    let generator = tt_core::rulegen::RoutingRuleGenerator::with_defaults(&matrix, 0.99, 3)?;
    let rules = generator.generate(&[0.0, 0.02, 0.05, 0.10], Objective::ResponseTime)?;
    for (tol, policy) in rules.tiers() {
        println!("  tolerance {:>5.1}% -> {policy}", tol * 100.0);
    }

    banner("3. Serve live: each tier's policy walk drives real model calls on a worker pool");
    let pool: WorkerPool<usize> = WorkerPool::new(4);
    let models: Vec<Arc<MlpClassifier>> = models.into_iter().map(|(_, m)| Arc::new(m)).collect();
    let samples = 200;
    for &(tolerance, policy) in rules.tiers() {
        let (mut correct, mut latency_us, mut invocations) = (0usize, 0u64, 0u64);
        for (i, x) in test.features[..samples].iter().enumerate() {
            // The matrix row prices each stage; confidences come from
            // the models themselves.
            let mut walk = Walk::new(&policy, matrix.request_row(i));
            let mut running = VecDeque::new();
            let mut predictions = [None; 3];
            let answered = loop {
                let mut answered = None;
                while let Some(action) = walk.poll() {
                    match action {
                        Action::Invoke(stage) => {
                            let (model, x) = (Arc::clone(&models[walk.version(stage)]), x.clone());
                            let call = pool.submit_cancellable(Box::new(move || model.predict(&x)));
                            running.push_back((stage, call));
                        }
                        Action::Cancel(stage) => {
                            for (_, (_, cancel)) in running.iter().filter(|(s, _)| *s == stage) {
                                cancel.store(true, Ordering::Relaxed);
                            }
                        }
                        Action::Answer { stage, .. } => answered = Some(stage),
                        Action::Exhausted => unreachable!("model calls never fail here"),
                    }
                }
                if let Some(stage) = answered {
                    break stage;
                }
                // Feed back the earliest stage still running.
                let (stage, (reply, _)) = running
                    .pop_front()
                    .expect("an unanswered walk runs a stage");
                let (prediction, confidence) = reply.recv().expect("the pool answers");
                predictions[stage] = Some(prediction);
                walk.landed(stage, confidence);
            };
            correct += usize::from(predictions[answered] == Some(test.labels[i]));
            latency_us += walk.latency_us();
            invocations += walk.invocations();
        }
        println!(
            "  tolerance {:>5.1}%: accuracy {:.1}%, accounted latency {:.0} µs, {:.2} model calls per request  ({policy})",
            tolerance * 100.0,
            correct as f64 / samples as f64 * 100.0,
            latency_us as f64 / samples as f64,
            invocations as f64 / samples as f64,
        );
    }
    pool.shutdown();

    Ok(())
}
