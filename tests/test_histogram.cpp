#include "common/histogram.hpp"

#include <gtest/gtest.h>

#include "common/table.hpp"

namespace dtpsim {
namespace {

TEST(IntHistogram, OneBinPerInteger) {
  IntHistogram h(-4, 4);
  h.add(-4);
  h.add(0);
  h.add(0);
  h.add(4);
  EXPECT_EQ(h.count(-4), 1u);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(4), 1u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(IntHistogram, ClampsButTracksExtremes) {
  IntHistogram h(-2, 2);
  h.add(100);
  h.add(-50);
  EXPECT_EQ(h.count(2), 1u);    // clamped high
  EXPECT_EQ(h.count(-2), 1u);   // clamped low
  ASSERT_TRUE(h.max_seen().has_value());
  ASSERT_TRUE(h.min_seen().has_value());
  EXPECT_EQ(*h.max_seen(), 100);
  EXPECT_EQ(*h.min_seen(), -50);
}

TEST(IntHistogram, EmptyHistogramHasNoExtremes) {
  IntHistogram h(-2, 2);
  EXPECT_FALSE(h.min_seen().has_value());
  EXPECT_FALSE(h.max_seen().has_value());
  // ...and the empty state must be distinguishable from a real observed 0.
  h.add(0);
  ASSERT_TRUE(h.min_seen().has_value());
  EXPECT_EQ(*h.min_seen(), 0);
  EXPECT_EQ(*h.max_seen(), 0);
}

TEST(IntHistogram, EmptyPdfAndRenderAreSafe) {
  IntHistogram h(-2, 2);
  EXPECT_DOUBLE_EQ(h.pdf(0), 0.0);                    // no divide-by-zero
  EXPECT_NO_THROW({ (void)h.render(40, true); });
  EXPECT_TRUE(h.render(40, false).empty());
}

TEST(IntHistogram, PdfOfTickOffsets) {
  // The Fig. 6c shape: offsets concentrated on {-1, 0, 1, 2}.
  IntHistogram h(-4, 4);
  for (int i = 0; i < 30; ++i) h.add(0);
  for (int i = 0; i < 10; ++i) h.add(1);
  for (int i = 0; i < 10; ++i) h.add(-1);
  EXPECT_DOUBLE_EQ(h.pdf(0), 0.6);
  EXPECT_DOUBLE_EQ(h.pdf(1), 0.2);
  EXPECT_DOUBLE_EQ(h.pdf(3), 0.0);
}

TEST(IntHistogram, InvertedRangeThrows) {
  EXPECT_THROW(IntHistogram(3, 2), std::invalid_argument);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"proto", "precision"});
  t.add_row({"NTP", "us"});
  t.add_row({"DTP", "ns"});
  const std::string out = t.render();
  EXPECT_NE(out.find("proto"), std::string::npos);
  EXPECT_NE(out.find("NTP"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, RejectsWrongArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, CellFormats) {
  EXPECT_EQ(Table::cell("%.1f ns", 25.6), "25.6 ns");
  EXPECT_EQ(Table::cell("%d", 42), "42");
}

}  // namespace
}  // namespace dtpsim
