int f(int x) {
  return x + 1;
}

int g(int y) {
  return f(y);
}
