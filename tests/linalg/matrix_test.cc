#include "linalg/matrix.h"

#include <gtest/gtest.h>

namespace distsketch {
namespace {

TEST(MatrixTest, DefaultIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(MatrixTest, ZeroInitialized) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 4; ++j) EXPECT_EQ(m(i, j), 0.0);
  }
}

TEST(MatrixTest, InitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_EQ(m(0, 1), 2.0);
  EXPECT_EQ(m(2, 0), 5.0);
}

TEST(MatrixTest, IdentityAndDiagonal) {
  const Matrix eye = Matrix::Identity(3);
  EXPECT_EQ(eye(0, 0), 1.0);
  EXPECT_EQ(eye(0, 1), 0.0);
  const double diag[] = {2.0, 5.0};
  const Matrix d = Matrix::Diagonal(diag);
  EXPECT_EQ(d.rows(), 2u);
  EXPECT_EQ(d(0, 0), 2.0);
  EXPECT_EQ(d(1, 1), 5.0);
  EXPECT_EQ(d(1, 0), 0.0);
}

TEST(MatrixTest, RowAccess) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  auto r = m.Row(1);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0], 4.0);
  m.Row(0)[2] = 9.0;
  EXPECT_EQ(m(0, 2), 9.0);
}

TEST(MatrixTest, AppendRowAdoptsWidth) {
  Matrix m;
  const double row[] = {1.0, 2.0, 3.0};
  m.AppendRow(row);
  EXPECT_EQ(m.rows(), 1u);
  EXPECT_EQ(m.cols(), 3u);
  m.AppendRow(row);
  EXPECT_EQ(m.rows(), 2u);
}

TEST(MatrixTest, AppendRowsConcatenates) {
  Matrix a{{1, 2}, {3, 4}};
  const Matrix b{{5, 6}};
  a.AppendRows(b);
  EXPECT_EQ(a.rows(), 3u);
  EXPECT_EQ(a(2, 1), 6.0);
  // Appending an empty matrix is a no-op.
  a.AppendRows(Matrix());
  EXPECT_EQ(a.rows(), 3u);
}

TEST(MatrixTest, RowRange) {
  const Matrix m{{1, 2}, {3, 4}, {5, 6}, {7, 8}};
  const Matrix mid = m.RowRange(1, 3);
  EXPECT_EQ(mid.rows(), 2u);
  EXPECT_EQ(mid(0, 0), 3.0);
  EXPECT_EQ(mid(1, 1), 6.0);
  EXPECT_EQ(m.RowRange(2, 2).rows(), 0u);
}

TEST(MatrixTest, EmptyRowRangeOfEmptyMatrix) {
  // An empty matrix has no buffer; the empty range must not hand its
  // null data pointer to memcpy.
  const Matrix empty(0, 3);
  const Matrix none = empty.RowRange(0, 0);
  EXPECT_EQ(none.rows(), 0u);
  EXPECT_EQ(none.cols(), 3u);
  EXPECT_EQ(Matrix().RowRange(0, 0).size(), 0u);
}

TEST(MatrixTest, RemoveZeroRows) {
  Matrix m{{1, 0}, {0, 0}, {0, 2}, {0, 0}};
  m.RemoveZeroRows();
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m(0, 0), 1.0);
  EXPECT_EQ(m(1, 1), 2.0);
}

TEST(MatrixTest, RemoveZeroRowsWithTolerance) {
  Matrix m{{1e-12, 0}, {1, 1}};
  m.RemoveZeroRows(1e-9);
  EXPECT_EQ(m.rows(), 1u);
  EXPECT_EQ(m(0, 0), 1.0);
}

TEST(MatrixTest, ScaleAndScaleRow) {
  Matrix m{{1, 2}, {3, 4}};
  m.Scale(2.0);
  EXPECT_EQ(m(1, 1), 8.0);
  m.ScaleRow(0, 0.5);
  EXPECT_EQ(m(0, 0), 1.0);
  EXPECT_EQ(m(1, 0), 6.0);
}

TEST(MatrixTest, SetZeroResizes) {
  Matrix m{{1, 2}};
  m.SetZero(3, 5);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 5u);
  EXPECT_EQ(m(2, 4), 0.0);
}

TEST(MatrixTest, Equality) {
  const Matrix a{{1, 2}};
  Matrix b{{1, 2}};
  EXPECT_TRUE(a == b);
  b(0, 1) = 3.0;
  EXPECT_FALSE(a == b);
}

TEST(MatrixTest, ToStringContainsEntries) {
  const Matrix m{{1.5, -2}};
  const std::string s = m.ToString();
  EXPECT_NE(s.find("1.5"), std::string::npos);
  EXPECT_NE(s.find("-2"), std::string::npos);
}

}  // namespace
}  // namespace distsketch
