//! The §3.3 deployment flow: **train in user space, deploy in the kernel**.
//!
//! Run with: `cargo run --release --example train_and_deploy`
//!
//! Training happens in `f64` (the "user space" persona: easy debugging,
//! full precision). The trained model is saved in the KML model-file
//! format, then loaded back at a *different* precision — `f32` for the
//! kernel module, whose inference runs inside an FPU section.

use kml_platform::fpu;
use readahead::datagen::{self, DatagenConfig};
use readahead::model;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- user space: collect data and train in f64 -----------------------
    println!("[user space] collecting tracepoint windows on NVMe...");
    let dcfg = DatagenConfig::quick();
    let data = datagen::training_dataset(&dcfg)?;
    println!(
        "[user space] {} labeled windows, {} classes",
        data.len(),
        data.num_classes()
    );

    println!("[user space] training the f64 network (lr=0.01, momentum=0.99)...");
    let trained = model::train_network(&data, 300, 7)?;
    let train_acc = {
        let mut m = model::train_network(&data, 300, 7)?;
        m.accuracy(&data)?
    };
    println!("[user space] training accuracy: {:.1}%", train_acc * 100.0);

    // --- save to the KML model file --------------------------------------
    let path = std::env::temp_dir().join("readahead-model.kml");
    kml_core::modelfile::save(&trained, &path)?;
    let size = std::fs::metadata(&path)?.len();
    println!("[file] saved {} ({size} bytes)", path.display());

    // --- kernel: load as f32 and infer under the FPU guard ---------------
    let mut kernel_model = kml_core::modelfile::load::<f32>(&path)?;
    println!(
        "[kernel] loaded as f32: {} B init memory, {} B inference scratch",
        kernel_model.init_memory_bytes(),
        kernel_model.inference_scratch_bytes()
    );
    let sections_before = fpu::sections_entered();
    let sample = data.sample(0);
    let class = kernel_model.predict(sample.0)?;
    println!(
        "[kernel] inference: predicted class {class} (truth {}), {} FPU section(s) used",
        sample.1,
        fpu::sections_entered() - sections_before
    );

    std::fs::remove_file(path)?;
    Ok(())
}
