//! Shared helpers for the integration tests.

// Each test crate uses only part of the oracle's API.
#![allow(dead_code)]

pub mod parser;
pub mod tokenizer;
