//! An idle training thread must sleep, not spin (paper §3.2: the trainer is
//! a kthread that wakes for work). Its own integration-test file, so the
//! process whose CPU time `/proc/self/stat` reports holds exactly one
//! trainer and one sleeping test thread.
#![cfg(target_os = "linux")]

use kml_collect::{AsyncTrainer, RingBuffer};
use kml_platform::Persona;
use std::time::Duration;

/// User + system CPU time of this process, in milliseconds (`utime` and
/// `stime` are fields 14 and 15 of `/proc/self/stat`, in `USER_HZ` = 100
/// ticks a second; the command name in field 2 may hold spaces, so count
/// from its closing parenthesis).
fn process_cpu_ms() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs");
    let after_comm = &stat[stat.rfind(')').expect("comm field") + 1..];
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("tick count");
    (ticks(11) + ticks(12)) * 10
}

#[test]
fn an_idle_trainer_does_not_burn_a_core() {
    let (producer, consumer) = RingBuffer::<u64>::with_capacity(64).split();
    let trainer = AsyncTrainer::spawn(Persona::Kernel, consumer, |_batch| {}).expect("spawns");

    let before = process_cpu_ms();
    std::thread::sleep(Duration::from_millis(300));
    let idle_cost = process_cpu_ms() - before;
    assert!(
        idle_cost < 100,
        "300 ms with nothing to train cost {idle_cost} ms of CPU"
    );

    // Asleep is not deaf: work pushed after the idle stretch still trains.
    for i in 0..10 {
        producer.push(i);
    }
    while trainer.samples_processed() < 10 {
        std::thread::sleep(Duration::from_micros(50));
    }
    trainer.stop().expect("stops");
}
