//! E2 — §4 model accuracy: k-fold cross-validation of the readahead NN.

use crate::{Ctx, DynResult, Out};

pub fn run(ctx: &Ctx, _: &mut Out) -> DynResult {
    println!("## E2: readahead NN k-fold cross-validation (§4)\n");
    let cv = &ctx.trained()?.cross_validation;
    for (i, acc) in cv.fold_accuracies.iter().enumerate() {
        println!("fold {i}: {:.1}%", acc * 100.0);
    }
    println!(
        "\nmean accuracy: {:.1}% (± {:.1}%)   [paper: 95.5% at k=10]\n",
        cv.mean_accuracy() * 100.0,
        cv.std_accuracy() * 100.0
    );
    Ok(())
}
