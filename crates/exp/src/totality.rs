//! Totality of every reader of untrusted bytes: the `shard::json` parser,
//! shard partials, the `campaign.json` manifest, `xbar-svc/1` request
//! lines and `--hosts` specs. Whatever the input — arbitrary text, any
//! truncation or single-bit flip of a valid document, nesting past
//! [`MAX_DEPTH`] — each returns `Ok` or `Err` and never panics.

use crate::launch::parse_hosts;
use crate::service::protocol::Request;
use crate::shard::json::{Json, MAX_DEPTH};
use crate::shard::partial::ShardPartial;
use crate::shard::run_dir::{parse_campaign_manifest, render_campaign_manifest};
use crate::shard::{run_shard, McConfig, ShardSpec};
use proptest::prelude::*;
use std::panic::catch_unwind;
use xbar_core::{DefectModelKind, DefectModelSpec, SampleStream};

/// A reader reduced to "did it accept the text".
type Accepts = fn(&str) -> bool;

/// Every reader under test.
const READERS: [(&str, Accepts); 5] = [
    ("Json::parse", |text| Json::parse(text).is_ok()),
    ("Request::parse", |text| Request::parse(text).is_ok()),
    ("ShardPartial::from_json", |text| {
        ShardPartial::from_json(text).is_ok()
    }),
    ("campaign manifest", |text| {
        parse_campaign_manifest(text).is_ok()
    }),
    ("parse_hosts", |text| parse_hosts(text).is_ok()),
];

/// Runs every reader on `text`; the name of the first that panicked.
fn panicking_reader(text: &str) -> Option<&'static str> {
    READERS
        .iter()
        .find(|(_, read)| catch_unwind(|| read(text)).is_err())
        .map(|(name, _)| *name)
}

/// One valid document per reader, each accepted by it.
fn valid_documents() -> Vec<String> {
    let config = McConfig {
        samples: 6,
        seed: u64::MAX - 3,
        defect_rate: 0.1,
        stream: SampleStream::V2,
        model: DefectModelSpec::new(DefectModelKind::Composite, 2.5, 0.01).expect("valid"),
        circuits: vec!["rd53".to_owned()],
    };
    let spec = ShardSpec::partition(config.samples, 2)[1];
    let docs = vec![
        run_shard(&config, &spec).to_json(),
        render_campaign_manifest(&config, 2, &["alpha*2".to_owned(), "beta".to_owned()]),
        Request::Submit {
            experiment: "table2".to_owned(),
            args: ["--quick", "--circuits", "rd53,misex1"]
                .map(str::to_owned)
                .to_vec(),
            wait: true,
        }
        .render(),
        "alpha*2, beta,local*3".to_owned(),
    ];
    assert!(ShardPartial::from_json(&docs[0]).is_ok());
    assert!(parse_campaign_manifest(&docs[1]).is_ok());
    assert!(Request::parse(&docs[2]).is_ok());
    assert!(parse_hosts(&docs[3]).is_ok());
    docs
}

/// Pieces of the readers' grammars, for inputs that reach past the first
/// byte more often than uniform noise does.
const TOKENS: [&str; 28] = [
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\\",
    "\\u",
    " ",
    "\"svc\"",
    "\"xbar-svc/1\"",
    "\"type\"",
    "\"submit\"",
    "\"schema\"",
    "\"circuits\"",
    "0",
    "-1",
    "1e999",
    "18446744073709551616",
    "0.5",
    "true",
    "null",
    "*",
    "alpha",
    "local*",
    "é",
    "\u{0}",
];

#[test]
fn every_truncation_of_a_valid_document_is_answered() {
    for doc in valid_documents() {
        for (end, _) in doc.char_indices() {
            let prefix = &doc[..end];
            assert_eq!(panicking_reader(prefix), None, "{prefix:?}");
        }
    }
}

#[test]
fn every_single_bit_flip_of_a_valid_document_is_answered() {
    for doc in valid_documents() {
        let mut bytes = doc.into_bytes();
        for bit in 0..bytes.len() * 8 {
            bytes[bit / 8] ^= 1 << (bit % 8);
            let text = String::from_utf8_lossy(&bytes).into_owned();
            assert_eq!(panicking_reader(&text), None, "{text:?}");
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
    }
}

#[test]
fn nesting_past_the_bound_is_answered_and_refused_as_json() {
    let request = Request::Stats.render();
    for depth in [MAX_DEPTH + 1, 200_000] {
        for (open, close) in [("[", "]"), ("{\"a\": ", "}")] {
            let nested = format!("{}0{}", open.repeat(depth), close.repeat(depth));
            // Bare, unterminated, and as a field of a valid request line.
            let field = format!("{}, \"x\": {nested}}}", &request[..request.len() - 1]);
            for text in [nested.as_str(), &nested[..depth], field.as_str()] {
                assert_eq!(panicking_reader(text), None, "depth {depth}");
                // Every reader but `parse_hosts` reads JSON.
                for (name, read) in &READERS[..4] {
                    assert!(!read(text), "{name} accepted depth {depth}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_are_answered(
        bytes in prop::collection::vec((0u32..256).prop_map(|b| b as u8), 0..256),
    ) {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        prop_assert_eq!(panicking_reader(&text), None, "{:?}", text);
    }

    #[test]
    fn arbitrary_token_sequences_are_answered(
        picks in prop::collection::vec(0usize..TOKENS.len(), 0..64),
    ) {
        let text: String = picks.iter().map(|&i| TOKENS[i]).collect();
        prop_assert_eq!(panicking_reader(&text), None, "{:?}", text);
    }
}
