//! Byte-size constants and formatting. The simulator meters data in bytes
//! without materializing it, so sizes appear everywhere in the codebase.

/// One kibibyte.
pub const KB: u64 = 1 << 10;
/// One mebibyte.
pub const MB: u64 = 1 << 20;
/// One gibibyte.
pub const GB: u64 = 1 << 30;
/// One tebibyte.
pub const TB: u64 = 1 << 40;

/// The paper's HDFS/DHT-FS block size (128 MB).
pub const DEFAULT_BLOCK_SIZE: u64 = 128 * MB;

/// Render a byte count with a binary-unit suffix, e.g. `1.5 GB`.
pub fn fmt_bytes(bytes: u64) -> String {
    let b = bytes as f64;
    if bytes >= TB {
        format!("{:.2} TB", b / TB as f64)
    } else if bytes >= GB {
        format!("{:.2} GB", b / GB as f64)
    } else if bytes >= MB {
        format!("{:.2} MB", b / MB as f64)
    } else if bytes >= KB {
        format!("{:.2} KB", b / KB as f64)
    } else {
        format!("{bytes} B")
    }
}

/// Number of fixed-size blocks needed to hold `total` bytes (ceiling
/// division; zero bytes yields zero blocks).
pub fn num_blocks(total: u64, block_size: u64) -> u64 {
    assert!(block_size > 0, "block size must be positive");
    total.div_ceil(block_size)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(1536), "1.50 KB");
        assert_eq!(fmt_bytes(250 * GB), "250.00 GB");
        assert_eq!(fmt_bytes(2 * TB), "2.00 TB");
    }

    #[test]
    fn block_math() {
        assert_eq!(num_blocks(0, DEFAULT_BLOCK_SIZE), 0);
        assert_eq!(num_blocks(1, DEFAULT_BLOCK_SIZE), 1);
        assert_eq!(num_blocks(DEFAULT_BLOCK_SIZE, DEFAULT_BLOCK_SIZE), 1);
        assert_eq!(num_blocks(DEFAULT_BLOCK_SIZE + 1, DEFAULT_BLOCK_SIZE), 2);
        // The paper's 250 GB / 128 MB = 2000 blocks.
        assert_eq!(num_blocks(250 * GB, DEFAULT_BLOCK_SIZE), 2000);
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn zero_block_size_panics() {
        num_blocks(10, 0);
    }
}
