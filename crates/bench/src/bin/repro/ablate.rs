//! Ablations from DESIGN.md §5 that are cheap enough to run here:
//! feature-window length, activation function and actuation hysteresis.

use crate::{Ctx, DynResult, Out};
use kernel_sim::DeviceProfile;
use kml_core::prelude::*;
use kml_core::train::TrainSpec;
use kvstore::Workload;
use readahead::closed_loop;

pub fn run(ctx: &Ctx, _: &mut Out) -> DynResult {
    let cfg = &ctx.cfg;
    println!("## Ablations (DESIGN.md §5)\n");

    // Window length: collect with different windows, compare NN accuracy.
    println!("### feature-window length\n");
    let mut rows = Vec::new();
    let base = cfg.datagen.window_ns;
    for window_ns in [base / 4, base, base * 4] {
        let mut dcfg = cfg.datagen.clone();
        dcfg.window_ns = window_ns;
        let data = readahead::datagen::training_dataset(&dcfg)?;
        let mut model = readahead::model::train_network(&data, cfg.epochs, 11)?;
        let acc = model.accuracy(&data)?;
        rows.push(vec![
            format!("{:.1} ms", window_ns as f64 / 1e6),
            data.len().to_string(),
            format!("{:.1}%", acc * 100.0),
        ]);
    }
    println!(
        "{}",
        bench::render_table(&["window", "samples", "train accuracy"], &rows)
    );

    // Activation: sigmoid (paper) vs relu vs tanh on the same data, each in
    // the paper's 5→15→10→4 shape.
    println!("### activation function\n");
    let data = readahead::datagen::training_dataset(&cfg.datagen)?;
    let mut rows = Vec::new();
    for (name, activation) in [
        ("sigmoid (paper)", Activation::Sigmoid),
        ("relu", Activation::Relu),
        ("tanh", Activation::Tanh),
    ] {
        let spec = TrainSpec {
            topology: ModelBuilder::new(5)
                .linear(15)
                .activation(activation)
                .linear(10)
                .activation(activation)
                .linear(4)
                .seed(13),
            shuffle: Some(17),
            ..readahead::model::spec(4, cfg.epochs, 13)
        };
        let (mut model, final_loss) = spec.train(&data)?;
        let acc = model.accuracy(&data)?;
        rows.push(vec![
            name.into(),
            format!("{final_loss:.3}"),
            format!("{:.1}%", acc * 100.0),
        ]);
    }
    println!(
        "{}",
        bench::render_table(&["activation", "final loss", "train accuracy"], &rows)
    );

    // Hysteresis: the two-window agreement requirement before actuating.
    println!("### actuation hysteresis\n");
    let trained = ctx.trained()?;
    let ssd = DeviceProfile::sata_ssd();
    let mut rows = Vec::new();
    for workload in [Workload::ReadRandom, Workload::MixGraph] {
        let vanilla = closed_loop::run_vanilla(workload, ssd, cfg);
        let (with, _) = closed_loop::run_kml(workload, ssd, trained, cfg)?;
        let (without, _) = closed_loop::run_kml_no_hysteresis(workload, ssd, trained, cfg)?;
        rows.push(vec![
            workload.name().into(),
            format!("{:.2}x", with.ops_per_sec / vanilla.ops_per_sec),
            format!("{:.2}x", without.ops_per_sec / vanilla.ops_per_sec),
        ]);
    }
    println!(
        "{}",
        bench::render_table(&["workload (ssd)", "with hysteresis", "without"], &rows)
    );
    println!("(dtype and ring-buffer ablations: `cargo bench -p bench --bench ablate`)\n");
    Ok(())
}
